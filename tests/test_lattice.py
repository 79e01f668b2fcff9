from __future__ import annotations

import time

import pytest

from talarescore.core import StrokeSequence, generate_sequence
from talarescore.errors import LatticeFormatError
from talarescore.lattice import (
    Arc,
    Lattice,
    LatticeGenConfig,
    dumps_lattice,
    generate_lattice,
    load_lattice,
    loads_lattice,
    save_lattice,
    viterbi_acoustic,
)

from .oracles import all_paths, path_count


def chain_lattice(vocab, labeled_scores):
    arcs = tuple(
        Arc(i, i + 1, vocab.id_of(sym), w) for i, (sym, w) in enumerate(labeled_scores)
    )
    return Lattice(
        vocab=vocab,
        n_nodes=len(labeled_scores) + 1,
        arcs=arcs,
        start=0,
        finals=frozenset({len(labeled_scores)}),
    )


def grid_lattice(vocab, rows):
    """One node per stage; ``rows`` is a list of [(symbol, score), ...] per stage."""
    arcs = []
    for stage, options in enumerate(rows):
        for sym, w in options:
            arcs.append(Arc(stage, stage + 1, vocab.id_of(sym), w))
    return Lattice(
        vocab=vocab,
        n_nodes=len(rows) + 1,
        arcs=tuple(arcs),
        start=0,
        finals=frozenset({len(rows)}),
    )


def test_arc_is_a_named_tuple(vocab):
    arc = Arc(0, 1, 1, -1.0)
    assert arc == Arc(src=0, dst=1, label=1, w_ac=-1.0) == (0, 1, 1, -1.0)
    assert hash(arc) == hash((0, 1, 1, -1.0))
    assert Arc._fields == ("src", "dst", "label", "w_ac")
    assert repr(arc) == "Arc(src=0, dst=1, label=1, w_ac=-1.0)"
    src, dst, label, w_ac = arc
    assert (src, dst, label, w_ac) == (arc.src, arc.dst, arc.label, arc.w_ac)
    with pytest.raises(AttributeError):
        arc.src = 2
    # Parsed arcs are Arcs too, equal to the ones dumped.  The symbols
    # appear in vocabulary order, so the vocabulary rebuilt from the text
    # numbers them alike.
    lat = chain_lattice(vocab, [("Dha", -1.0), ("Dhin", -2.5), ("Dha", 0.25), ("Na", 0.0)])
    again = loads_lattice(dumps_lattice(lat))
    assert again.arcs == lat.arcs
    assert all(type(a) is Arc for a in again.arcs)


def test_viterbi_single_path(vocab):
    lat = chain_lattice(vocab, [("Dha", -1.0), ("Tin", -2.0)])
    assert viterbi_acoustic(lat).to_symbols(vocab) == ("Dha", "Tin")


def test_viterbi_picks_higher_score(vocab):
    arcs = (
        Arc(0, 1, vocab.id_of("Dha"), -1.0),
        Arc(0, 1, vocab.id_of("Na"), -2.0),
    )
    lat = Lattice(vocab=vocab, n_nodes=2, arcs=arcs, start=0, finals=frozenset({1}))
    assert viterbi_acoustic(lat).to_symbols(vocab) == ("Dha",)


def test_viterbi_tie_breaks_by_smallest_arc_ids(vocab):
    arcs = (
        Arc(0, 1, vocab.id_of("Na"), -1.0),
        Arc(0, 1, vocab.id_of("Dha"), -1.0),
    )
    lat = Lattice(vocab=vocab, n_nodes=2, arcs=arcs, start=0, finals=frozenset({1}))
    assert viterbi_acoustic(lat).to_symbols(vocab) == ("Na",)


def tied_sausage(vocab, n, finals):
    # Three arcs per position, every score 0.0; the first arc's label turns
    # with the position.
    arcs = tuple(Arc(k, k + 1, (k + j) % 3 + 1, 0.0) for k in range(n) for j in range(3))
    return Lattice(vocab=vocab, n_nodes=n + 1, arcs=arcs, start=0, finals=frozenset(finals))


def tied_braid(vocab, n):
    # Two chains, a (label 1) and b (label 2), that never share a node; at
    # every position k both enter a merge node m_k (label 3), which rejoins
    # chain a (label 4).  Every score is 0.0, and the one final is m_n.
    a, b, m = (lambda k: 3 * k - 2), (lambda k: 3 * k - 1), (lambda k: 3 * k)
    arcs = [Arc(0, a(1), 1, 0.0), Arc(0, b(1), 2, 0.0)]
    for k in range(1, n):
        arcs += [Arc(a(k), a(k + 1), 1, 0.0), Arc(a(k), m(k), 3, 0.0)]
        arcs += [Arc(b(k), b(k + 1), 2, 0.0), Arc(b(k), m(k), 3, 0.0), Arc(m(k), a(k + 1), 4, 0.0)]
    arcs += [Arc(a(n), m(n), 3, 0.0), Arc(b(n), m(n), 3, 0.0)]
    return Lattice(vocab=vocab, n_nodes=3 * n + 1, arcs=tuple(arcs), start=0, finals=frozenset({m(n)}))


def test_viterbi_is_linear_on_tied_scores(vocab):
    # Each lattice ties everywhere.  Settling each tie during the search, by
    # rebuilding both chains from the start or by walking both back to where
    # they meet, took up to minutes on these lattices.
    n = 40_000
    cases = [
        # The first arc wins at every position.
        (tied_sausage(vocab, n, {n}), tuple(k % 3 + 1 for k in range(n))),
        # Every node is final, so the first arc alone wins: a prefix first.
        (tied_sausage(vocab, n, range(1, n + 1)), (1,)),
        # Chain a all the way, then into the final merge node.
        (tied_braid(vocab, 20_000), (1,) * 20_000 + (3,)),
    ]
    for lat, expected in cases:
        began = time.perf_counter()
        hyp = viterbi_acoustic(lat)
        assert time.perf_counter() - began < 20.0
        assert hyp.strokes == expected


def test_viterbi_equals_enumeration_argmax_on_random_grids(vocab):
    import random

    rng = random.Random(7)
    symbols = vocab.playable_symbols
    for trial in range(25):
        rows = []
        for _ in range(5):
            picks = rng.sample(symbols, 3)
            rows.append([(s, rng.uniform(-3, 0)) for s in picks])
        lat = grid_lattice(vocab, rows)
        _, labels, _ = max(all_paths(lat), key=lambda p: p[2])
        assert viterbi_acoustic(lat).strokes == labels


def test_generate_zero_noise_single_path(vocab, tintal):
    truth = generate_sequence(tintal, 1, None, 0, vocab)
    cfg = LatticeGenConfig(rng_seed=1, branching=1, noise_sigma=0.0)
    lat = generate_lattice(truth, cfg, vocab)
    paths = all_paths(lat)
    assert len(paths) == 1
    _, labels, score = paths[0]
    assert labels == truth.strokes
    assert score == 0.0


def test_generated_lattice_always_contains_truth(vocab):
    truth = StrokeSequence((1, 3, 2, 4, 1, 5))
    for seed in range(5):
        cfg = LatticeGenConfig(
            rng_seed=seed, branching=3, noise_sigma=1.0, p_del=0.2, p_ins=0.2
        )
        lat = generate_lattice(truth, cfg, vocab)
        paths = all_paths(lat)
        assert path_count(lat) == len(paths)
        assert truth.strokes in {labels for _, labels, _ in paths}


def test_generated_lattice_is_deterministic_and_byte_stable(vocab, tintal, tmp_path):
    truth = generate_sequence(tintal, 2, None, 11, vocab)
    cfg = LatticeGenConfig(rng_seed=9, branching=3, noise_sigma=0.8, p_del=0.1, p_ins=0.1)
    a = generate_lattice(truth, cfg, vocab)
    b = generate_lattice(truth, cfg, vocab)
    assert dumps_lattice(a) == dumps_lattice(b)
    save_lattice(a, tmp_path / "a.lat")
    save_lattice(b, tmp_path / "b.lat")
    assert (tmp_path / "a.lat").read_bytes() == (tmp_path / "b.lat").read_bytes()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("noise_sigma", -0.5, "^noise_sigma must be non-negative$"),
        ("noise_sigma", float("nan"), "^noise_sigma must be finite, got nan$"),
        ("noise_sigma", float("inf"), "^noise_sigma must be finite, got inf$"),
        ("margin", float("nan"), "^margin must be finite, got nan$"),
        ("margin", float("-inf"), "^margin must be finite, got -inf$"),
        ("branching", 0, "^branching must be >= 1$"),
        ("branching", 2.0, "^branching must be an integer, got 2.0$"),
        ("branching", float("nan"), "^branching must be an integer, got nan$"),
        ("branching", True, "^branching must be an integer, got True$"),
        ("p_del", 1.5, r"^p_del must lie in \[0, 1\], got 1.5$"),
    ],
)
def test_generation_config_rejects_values_that_make_no_lattice(field, value, message):
    # A non-finite score would surface only as the generated lattice's own
    # format error, blaming the program's output for its input.
    with pytest.raises(ValueError, match=message):
        LatticeGenConfig(rng_seed=0, **{field: value})


def test_branching_cannot_exceed_vocabulary(vocab):
    truth = StrokeSequence((1, 2))
    with pytest.raises(ValueError, match="branching"):
        generate_lattice(truth, LatticeGenConfig(rng_seed=0, branching=6), vocab)


def test_serialization_round_trip_bit_exact(vocab, tintal, tmp_path):
    truth = generate_sequence(tintal, 2, None, 3, vocab)
    cfg = LatticeGenConfig(rng_seed=17, branching=2, noise_sigma=1.3, p_ins=0.1)
    lat = generate_lattice(truth, cfg, vocab)
    path = tmp_path / "lat.lat"
    save_lattice(lat, path)
    reloaded = load_lattice(path, vocab=vocab)
    assert dumps_lattice(reloaded) == dumps_lattice(lat)
    save_lattice(reloaded, tmp_path / "re.lat")
    assert (tmp_path / "re.lat").read_bytes() == path.read_bytes()
    # Scores survive the text round trip exactly.
    for a, b in zip(lat.arcs, reloaded.arcs):
        assert a.w_ac == b.w_ac


def test_load_without_vocab_reconstructs_from_arcs(tmp_path):
    text = (
        "lattice v1\n"
        "vocab 2\n"
        "start 0\n"
        "final 2\n"
        "arc 0 1 Dha -1.0\n"
        "arc 1 2 Tin -2.0\n"
    )
    lat = loads_lattice(text)
    assert lat.vocab.playable_symbols == ("Dha", "Tin")
    assert lat.vocab_ref == "2"


def test_load_with_vocab_path(tmp_path, vocab):
    from talarescore.core import save_vocabulary

    save_vocabulary(vocab, tmp_path / "v.txt")
    (tmp_path / "l.lat").write_text(
        "lattice v1\nvocab v.txt\nstart 0\nfinal 1\narc 0 1 Dha -1.0\n",
        encoding="utf-8",
    )
    lat = load_lattice(tmp_path / "l.lat")
    assert lat.vocab == vocab


def test_cycle_detection(vocab):
    arcs = (
        Arc(0, 1, 1, 0.0),
        Arc(1, 2, 1, 0.0),
        Arc(2, 1, 1, 0.0),
    )
    with pytest.raises(LatticeFormatError, match="cycle"):
        Lattice(vocab=vocab, n_nodes=3, arcs=arcs, start=0, finals=frozenset({2}))


def test_dead_end_node_rejected(vocab):
    arcs = (
        Arc(0, 1, 1, 0.0),
        Arc(0, 2, 1, 0.0),  # node 2 reaches no final
    )
    with pytest.raises(LatticeFormatError, match="no start-to-final path"):
        Lattice(vocab=vocab, n_nodes=3, arcs=arcs, start=0, finals=frozenset({1}))


def test_start_with_incoming_rejected(vocab):
    arcs = (
        Arc(0, 1, 1, 0.0),
        Arc(1, 0, 1, 0.0),
    )
    with pytest.raises(LatticeFormatError):
        Lattice(vocab=vocab, n_nodes=2, arcs=arcs, start=0, finals=frozenset({1}))


def test_malformed_files_rejected():
    with pytest.raises(LatticeFormatError, match="header"):
        loads_lattice("not a lattice\n")
    with pytest.raises(LatticeFormatError, match="unknown directive"):
        loads_lattice("lattice v1\nwhat 1\n")
    with pytest.raises(LatticeFormatError, match="missing"):
        loads_lattice("lattice v1\nvocab 2\narc 0 1 Dha -1.0\n")
    # Wrong arity or a non-numeric field is reported with the offending line.
    for bad in ("start", "start zero", "start 0 1", "vocab", "final 1 b",
                "arc 0 1 Dha", "arc 0 x Dha -1.0", "arc 0 1 Dha low"):
        text = f"lattice v1\nvocab 2\nstart 0\nfinal 1\n{bad}\n"
        with pytest.raises(LatticeFormatError, match=f"bad .*{bad!r}"):
            loads_lattice(text)


def test_vocab_count_must_be_a_decimal_integer():
    # '²' passes str.isdigit but int() rejects it; other scripts' decimal
    # digits are counts as int() reads them.
    text = "lattice v1\nvocab {}\nstart 0\nfinal 1\narc 0 1 Dha -1.0\n"
    with pytest.raises(LatticeFormatError, match="bad vocab line 'vocab ²'"):
        loads_lattice(text.format("²"))
    lat = loads_lattice(text.format("٣"))
    assert lat.vocab_ref == "٣" and lat.vocab.playable_symbols == ("Dha",)


@pytest.mark.parametrize("first, repeat", [("vocab 3", "vocab 2"), ("start 1", "start 0")])
def test_repeated_vocab_or_start_line_rejected(first, repeat):
    # Without the check the later line silently wins and the text loads.
    text = f"lattice v1\n{first}\nvocab 2\nstart 0\nfinal 2\narc 0 1 Dha -1.0\narc 1 2 Tin -1.0\n"
    with pytest.raises(LatticeFormatError, match=f"bad .*{repeat!r}: repeated"):
        loads_lattice(text)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_non_finite_arc_scores_rejected(vocab, score):
    text = f"lattice v1\nvocab 5\nstart 0\nfinal 2\narc 0 1 Dha -1.0\narc 1 2 Na {score}\n"
    with pytest.raises(LatticeFormatError, match="arc 1 score .* not finite"):
        loads_lattice(text, vocab=vocab)


@pytest.mark.parametrize(
    "body, sparse_id",
    [
        ("start 0\nfinal 1000000\narc 0 1000000 Dha -1.0\n", 1000000),
        ("start 0\nfinal 2\narc 0 3 Dha -1.0\narc 3 2 Na -1.0\n", 3),
        ("start 5\nfinal 1\narc 5 1 Dha -1.0\n", 5),
    ],
    ids=["far-final", "gap", "far-start"],
)
def test_sparse_node_ids_rejected_at_parse(vocab, body, sparse_id):
    # A gap in the ids is named before any per-node structure is sized by it.
    with pytest.raises(LatticeFormatError, match=f"node id {sparse_id} is not dense"):
        loads_lattice("lattice v1\nvocab 5\n" + body, vocab=vocab)


# Which fault is reported when a lattice has two: the checks run in a fixed
# order, arcs in arc-id order and nodes in id order.


def test_endpoint_fault_is_reported_before_a_later_non_finite_score(vocab):
    arcs = (Arc(0, 1, 1, 0.0), Arc(1, 9, 1, 0.0), Arc(1, 2, 1, float("nan")))
    with pytest.raises(LatticeFormatError, match=r"^arc 1 endpoint out of range$"):
        Lattice(vocab=vocab, n_nodes=3, arcs=arcs, start=0, finals=frozenset({2}))


def test_endpoint_fault_is_reported_before_a_bad_label_on_the_same_arc(vocab):
    arcs = (Arc(0, 1, 1, 0.0), Arc(-1, 1, 0, 0.0))
    with pytest.raises(LatticeFormatError, match=r"^arc 1 endpoint out of range$"):
        Lattice(vocab=vocab, n_nodes=2, arcs=arcs, start=0, finals=frozenset({1}))


@pytest.mark.parametrize("bad", [(1, 2, 1, 0.0), (1, 2, 1)], ids=["4-tuple", "3-tuple"])
def test_an_arc_that_is_not_an_arc_is_reported_in_arc_order(vocab, bad):
    # A plain tuple is no Arc, whatever its length; the faults of earlier
    # arcs still come first.
    arcs = (Arc(0, 1, 1, 0.0), bad)
    with pytest.raises(LatticeFormatError, match=r"^arc 1 is not an Arc$"):
        Lattice(vocab=vocab, n_nodes=3, arcs=arcs, start=0, finals=frozenset({2}))
    arcs = (Arc(0, 9, 1, 0.0), bad)
    with pytest.raises(LatticeFormatError, match=r"^arc 0 endpoint out of range$"):
        Lattice(vocab=vocab, n_nodes=3, arcs=arcs, start=0, finals=frozenset({2}))


def test_cycle_is_reported_before_a_node_on_no_path(vocab):
    # 2 -> 3 -> 2 is a cycle; node 4 reaches no final node.
    arcs = (Arc(0, 1, 1, 0.0), Arc(1, 2, 1, 0.0), Arc(2, 3, 1, 0.0), Arc(3, 2, 1, 0.0), Arc(0, 4, 1, 0.0))
    with pytest.raises(LatticeFormatError, match=r"^lattice contains a cycle$"):
        Lattice(vocab=vocab, n_nodes=5, arcs=arcs, start=0, finals=frozenset({2}))


def test_of_two_dead_nodes_the_lower_id_is_reported(vocab):
    # Node 3 reaches no final node (its arc comes first); node 2 is not
    # reachable from the start.
    arcs = (Arc(0, 3, 1, 0.0), Arc(0, 1, 1, 0.0), Arc(2, 1, 1, 0.0))
    with pytest.raises(LatticeFormatError, match=r"^node 2 lies on no start-to-final path$"):
        Lattice(vocab=vocab, n_nodes=4, arcs=arcs, start=0, finals=frozenset({1}))


def test_unknown_symbol_is_reported_before_a_sparse_node_id(vocab):
    text = "lattice v1\nvocab 5\nstart 0\nfinal 1\narc 0 1 Dha -1.0\narc 0 7 Bol -1.0\narc 7 1 Na -1.0\n"
    with pytest.raises(LatticeFormatError, match=r"^unknown stroke symbol: 'Bol'$"):
        loads_lattice(text, vocab=vocab)


@pytest.mark.parametrize(
    "arcs, fault",
    [
        ("arc 0 1 <s> -1.0\n", r"^arc 0 label 0 is not a playable stroke$"),
        ("arc 0 1 Dha -1.0\narc 0 1 <s> -1.0\n", r"^arc 1 label 0 is not a playable stroke$"),
        ("arc 0 1 <s> -1.0\narc 1 0 <s> -1.0\n", r"^arc 0 label 0 is not a playable stroke$"),
        ("", r"^node 0 lies on no start-to-final path$"),
    ],
    ids=["sentinel-only", "sentinel-after-a-stroke", "sentinel-cycle", "no-arcs"],
)
def test_sentinel_arc_fails_alike_with_and_without_a_vocabulary(vocab, arcs, fault):
    # The sentinel is no inline vocabulary symbol, so the validator names
    # the arc in both cases.
    text = "lattice v1\nvocab 5\nstart 0\nfinal 1\n" + arcs
    for given in (vocab, None):
        with pytest.raises(LatticeFormatError, match=fault):
            loads_lattice(text, vocab=given)


def test_inline_vocab_count_is_checked_in_linear_time():
    # 50,000 distinct symbols under "vocab 5"; a quadratic de-duplication
    # would take minutes here.
    n = 50_000
    text = f"lattice v1\nvocab 5\nstart 0\nfinal {n}\n" + "".join(f"arc {i} {i + 1} s{i} -1.0\n" for i in range(n))
    with pytest.raises(LatticeFormatError, match=r"^vocab count 5 smaller than 50000 distinct arc symbols$"):
        loads_lattice(text)


@pytest.mark.parametrize(
    "n_nodes, start, finals, message",
    [
        (0, 0, {1}, "lattice needs at least one node"),
        (2, 2, {1}, "start node 2 out of range"),
        (2, 0, set(), "lattice needs at least one final node"),
        (2, 0, {0, 1}, "start node may not be final (paths must carry strokes)"),
        (2, 0, {1, 2}, "final node 2 out of range"),
    ],
    ids=["no-nodes", "start-out-of-range", "no-final", "final-start", "final-out-of-range"],
)
def test_lattice_rejects_bad_node_sets(vocab, n_nodes, start, finals, message):
    with pytest.raises(LatticeFormatError) as exc:
        Lattice(vocab=vocab, n_nodes=n_nodes, arcs=(Arc(0, 1, 1, 0.0),), start=start, finals=frozenset(finals))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "expected header 'lattice v1'"),
        ("lattice v1\nstart 0\nfinal 1\narc 0 1 Dha -1.0\n", "no vocab directive and no vocabulary supplied"),
    ],
    ids=["empty", "no-vocab-line"],
)
def test_lattice_text_without_header_or_vocabulary_fails(text, message):
    with pytest.raises(LatticeFormatError) as exc:
        loads_lattice(text)
    assert str(exc.value) == message


def test_generator_draws_are_pinned(vocab):
    # The suite's lattice noise comes from numpy's Generator.normal, its
    # competitors from .choice(p=...) and its deletions and insertions from
    # .random().  NumPy keeps bit-generator streams stable across versions,
    # but not the streams of distribution methods, so a numpy upgrade could
    # move report.tsv with no code change; this pin then names the cause.
    truth = StrokeSequence((1, 2, 2, 1, 1, 2, 2, 1))
    cfg = LatticeGenConfig(rng_seed=2024, branching=3, noise_sigma=0.95, p_del=0.1, p_ins=0.1)
    lat = generate_lattice(truth, cfg, vocab)
    drawn = [(a.src, a.dst, vocab.symbol_of(a.label), repr(a.w_ac)) for a in lat.arcs[:15]]
    assert drawn == [
        (0, 1, "Dha", "0.9774140302543062"),
        (0, 1, "Dhin", "-1.9245205397008371"),
        (0, 1, "Na", "-2.323160091558025"),
        (0, 9, "Dha", "1.719771295580519"),  # an insertion through node 9
        (9, 1, "Dhin", "-0.28669870050377766"),
        (1, 2, "Dhin", "0.6077715762348893"),
        (1, 2, "Tin", "0.41018530639951667"),
        (1, 2, "Dha", "-0.9535332170839426"),
        (2, 3, "Dhin", "-0.41455219904877827"),
        (2, 3, "Tin", "-0.1420900761435525"),
        (2, 3, "Na", "-2.4065522587693353"),
        (3, 4, "Dha", "-0.5913532111497888"),
        (3, 4, "Na", "-1.239675271664039"),
        (3, 4, "Ta", "-1.2107684638327822"),
        (3, 5, "Dha", "-1.4096918209425777"),  # a deletion: one arc spans strokes 4 and 5
    ]
