"""Property tests on lattice shapes and prior tables the fixed ensembles miss.

The generated lattices are small DAGs with several final nodes (some of which
have outgoing arcs), parallel arcs, skip arcs, detours through extra nodes
whose ids do not follow the topological order, and arc scores drawn from a
handful of values so that exact ties are common.  The generated static priors
step their state along random histories, on trained and hand-edited tables.
The generated models are trained on random corpora over random vocabularies.
Examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from talarescore.core import SENTINEL_ID, StrokeSequence, StrokeVocabulary
from talarescore.dynamic_model import init_alpha
from talarescore.errors import VocabularyError
from talarescore.eval import ser
from talarescore.lattice import dumps_lattice, loads_lattice, viterbi_acoustic
from talarescore.model import RhythmModel, dumps_model, loads_model, train_model
from talarescore.rescorer import RescoreConfig, path_terms, rescore
from talarescore.static_prior import TalaIndependentPrior, train_static_prior

from .helpers import PROPERTY_SETTINGS, dist_after, small_dags
from .oracles import (
    EXHAUSTIVE,
    all_paths,
    best_path_by_replay,
    edit_decomposition,
    levenshtein_distance,
    prior_state_key,
    window_counts,
)
from .reference_beam import assert_rescore_equals_reference


@pytest.mark.parametrize("mode", ["adaptive", "fixed:0.5"])
@PROPERTY_SETTINGS
@given(lat=small_dags())
def test_exhaustive_rescore_equals_replay_oracle(small_model, mode, lat):
    cfg = replace(EXHAUSTIVE, lambda_mode=mode)
    hyp, exp, _ = rescore(lat, small_model, cfg)
    oracle_labels, oracle_score = best_path_by_replay(lat, small_model, cfg)
    assert hyp.strokes == oracle_labels
    assert max(exp.states.acc_score[t] for t in exp.terminals) == pytest.approx(oracle_score, abs=1e-9)


@pytest.mark.parametrize("mode", ["adaptive", "fixed:0.5"])
@PROPERTY_SETTINGS
@given(lat=small_dags())
def test_every_decoded_weight_equals_its_replay(small_model, mode, lat):
    # The decode scores each (node, Dirichlet row, static distribution) key
    # once and hands its weights to every later state with that key.  Tied
    # scores and parallel arcs make keys repeat across states and nodes, so
    # each state's path is replayed without the memo: the chain to every
    # state without children covers every state.
    cfg = replace(EXHAUSTIVE, lambda_mode=mode)
    _, exp, diag = rescore(lat, small_model, cfg)
    cols = exp.states
    assert diag.scored <= diag.pops
    parents = set(cols.parent)
    for leaf in range(1, len(cols)):
        if leaf in parents:
            continue
        ids = [leaf]
        while cols.parent[ids[-1]]:
            ids.append(cols.parent[ids[-1]])
        terms = path_terms(lat, small_model, cfg, exp.arc_chain(leaf))
        assert [t.weight for t in terms] == [cols.weight[sid] for sid in reversed(ids)]


@pytest.mark.parametrize("mode", ["adaptive", "fixed:0.5", "fixed:0"])
@PROPERTY_SETTINGS
@given(lat=small_dags(), k_beam=st.integers(1, 4), beta=st.sampled_from([0.5, 0.0]))
def test_rescore_equals_the_reference_beam(small_model, mode, lat, k_beam, beta):
    # At beta 0 every weight is its arc's acoustic score, so on these tied
    # scores children often tie exactly with a full queue's k_beam-th entry,
    # which a tie leaves ahead of them.
    cfg = RescoreConfig(k_beam=k_beam, beta=beta, lambda_mode=mode)
    assert_rescore_equals_reference(lat, small_model, cfg)


@PROPERTY_SETTINGS
@given(lat=small_dags())
def test_beta_zero_equals_acoustic_viterbi(small_model, lat):
    hyp, _, _ = rescore(lat, small_model, replace(EXHAUSTIVE, beta=0.0))
    assert hyp.strokes == viterbi_acoustic(lat).strokes


@PROPERTY_SETTINGS
@given(lat=small_dags())
def test_viterbi_equals_the_best_path_with_the_smallest_arc_ids(lat):
    # Ties are common on these lattices: of the best-scoring paths, the one
    # with the lexicographically smallest arc-id sequence wins.
    _, labels, _ = min(all_paths(lat), key=lambda p: (-p[2], p[0]))
    assert viterbi_acoustic(lat).strokes == labels


@PROPERTY_SETTINGS
@given(lat=small_dags())
def test_lattice_text_round_trip_is_exact(lat):
    text = dumps_lattice(lat)
    again = loads_lattice(text, vocab=lat.vocab)
    assert dumps_lattice(again) == text
    assert (again.n_nodes, again.arcs, again.start, again.finals) == (
        lat.n_nodes, lat.arcs, lat.start, lat.finals
    )
    # Without a vocabulary the symbols are re-numbered but the text is unchanged.
    assert dumps_lattice(loads_lattice(text)) == text


@PROPERTY_SETTINGS
@given(
    ref=st.lists(st.sampled_from("abc"), min_size=1, max_size=9),
    hyp=st.lists(st.sampled_from("abc"), max_size=9),
)
def test_ser_total_equals_independent_edit_distance(ref, hyp):
    stats = ser(ref, hyp)
    assert stats.total_errors == levenshtein_distance(ref, hyp)
    assert stats.n_ref == len(ref)
    assert len(hyp) == len(ref) - stats.deletions + stats.insertions


@PROPERTY_SETTINGS
@given(
    ref=st.lists(st.sampled_from("abc"), min_size=1, max_size=12),
    hyp=st.lists(st.sampled_from("abc"), max_size=12),
)
def test_ser_decomposition_equals_the_full_matrix_oracle(ref, hyp):
    # The S/D/I split, not only the total: ties between alignments go to
    # substitution, then insertion, then deletion.
    stats = ser(ref, hyp)
    assert (stats.substitutions, stats.deletions, stats.insertions) == edit_decomposition(ref, hyp)
    assert stats.n_ref == len(ref)


@st.composite
def long_ser_pairs(draw):
    """A reference of 60-150 items, so that a column of the distance matrix
    spans more than 64 bits, and a hypothesis that also holds items the
    reference never does: either drawn freely, or an edited copy of the
    reference.  The items are all strings or all ints."""
    alphabet, foreign = draw(st.sampled_from([("abc", "xy"), ((1, 2, 3), (8, 9))]))
    ref = draw(st.lists(st.sampled_from(alphabet), min_size=60, max_size=150))
    item = st.sampled_from(tuple(alphabet) + tuple(foreign))
    if draw(st.booleans()):
        return ref, draw(st.lists(item, max_size=160))
    # Keep, substitute, delete, or keep and insert after, per reference item.
    ops = draw(st.lists(st.sampled_from("kkkksdi"), min_size=len(ref), max_size=len(ref)))
    news = draw(st.lists(item, min_size=len(ref), max_size=len(ref)))
    hyp = []
    for op, old, new in zip(ops, ref, news):
        if op != "d":
            hyp.append(new if op == "s" else old)
        if op == "i":
            hyp.append(new)
    return ref, hyp


@PROPERTY_SETTINGS
@given(case=long_ser_pairs())
def test_ser_decomposition_on_long_references_equals_the_full_matrix_oracle(case):
    ref, hyp = case
    for h in (hyp, []):
        stats = ser(ref, h)
        assert (stats.substitutions, stats.deletions, stats.insertions) == edit_decomposition(ref, h)
        assert stats.n_ref == len(ref)


@st.composite
def noisy_lattice_texts(draw):
    """A ``dumps_lattice`` text with blank lines, ``#`` comments, CRLF endings
    and leading or trailing whitespace inserted, and the lattice it encodes."""
    lat = draw(small_dags())
    padding = st.sampled_from(["", " ", "\t", "  \t "])
    fillers = st.lists(
        st.sampled_from(["", "   ", "\t", "#", "# arc 0 1 Dha 0.0", "  #start 3", "#final"]), max_size=2
    )
    endings = st.sampled_from(["\n", "\r\n"])
    out = [line + draw(endings) for line in draw(fillers)]
    for line in dumps_lattice(lat).splitlines():
        out.append(draw(padding) + line + draw(padding) + draw(endings))
        out.extend(filler + draw(endings) for filler in draw(fillers))
    return lat, "".join(out)


@PROPERTY_SETTINGS
@given(case=noisy_lattice_texts())
def test_lattice_text_with_noise_loads_to_the_same_lattice(case):
    lat, text = case
    for vocab in (lat.vocab, None):
        again = loads_lattice(text, vocab=vocab)
        assert (again.n_nodes, again.start, again.finals, again.vocab_ref) == (
            lat.n_nodes, lat.start, lat.finals, lat.vocab_ref
        )
        assert again.topological_order == lat.topological_order
        assert dumps_lattice(again) == dumps_lattice(lat)
    # With the same vocabulary the arcs are equal field by field.
    assert loads_lattice(text, vocab=lat.vocab).arcs == lat.arcs


ABC = StrokeVocabulary.of(["A", "B", "C"])
STROKES = st.integers(1, ABC.num_playable)
TALAS = ("t1", "t2")


@st.composite
def stepped_priors(draw, case):
    """A prior's constructor arguments, possibly with a hand-edited window
    table, and a history to step along.

    ``case`` fixes the shape: ``"unigram"`` has n=1, ``"short_window"`` a
    tala window shorter than the n-gram context, ``"not_closed"`` a window
    table that holds windows without their sub-windows, ``"many_talas"``
    8 to 10 talas, whose weights a pairwise sum would add in another order.
    """
    n = 1 if case == "unigram" else draw(st.integers(3 if case == "short_window" else 2, 4))
    w_tau = draw(st.integers(1, n - 2)) if case == "short_window" else draw(st.integers(1, 5))
    laplace_k = draw(st.sampled_from((1.0, 0.3)))
    talas = tuple(f"t{i}" for i in range(1, draw(st.integers(8, 10)) + 1)) if case == "many_talas" else TALAS
    corpus = [
        StrokeSequence(tuple(draw(st.lists(STROKES, min_size=1, max_size=12))), tala_label=tala)
        for tala in talas
    ]
    trained = train_static_prior(corpus, ABC.num_playable, n=n, laplace_k=laplace_k, w_tau=w_tau)
    windows = trained.window_counts
    if case == "not_closed":
        for tala in talas:
            for window in [w for w in windows[tala] if len(w) < w_tau and draw(st.booleans())]:
                del windows[tala][window]
        for _ in range(draw(st.integers(1, 4))):
            window = tuple(draw(st.lists(STROKES, min_size=2, max_size=w_tau))) if w_tau > 1 else (1,)
            windows[draw(st.sampled_from(talas))][window] = draw(st.integers(1, 5))
    tables = dict(
        n=n, laplace_k=laplace_k, w_tau=w_tau, num_playable=ABC.num_playable,
        counts=trained.counts, window_counts=windows, tala_priors=trained.tala_priors,
    )
    history = tuple(draw(st.lists(STROKES, max_size=20)))
    return tables, history


def reference_mixture(tables, history) -> tuple[float, ...]:
    """The mixture from the raw tables on Python floats, with no prior: each
    tala's weight reads its own window dict, and every sum runs left to
    right from 0.0, the talas in sorted order."""
    k, v = tables["laplace_k"], tables["num_playable"]
    priors = tables["tala_priors"]
    talas = sorted(priors)
    window = history[max(0, len(history) - tables["w_tau"]) :]
    if window:
        weights = [(tables["window_counts"][t].get(window, 0) + k) * priors[t] for t in talas]
    else:
        weights = [priors[t] for t in talas]
    z = 0.0
    for weight in weights:
        z += weight
    ctx = ((SENTINEL_ID,) * (tables["n"] - 1) + history)[len(history) :]
    mix = [0.0] * v
    for weight, tala in zip(weights, talas):
        row = tables["counts"][tala].get(ctx, {})
        cells = [k + row.get(q, 0) for q in range(1, v + 1)]
        total = 0.0
        for cell in cells:
            total += cell
        for i, cell in enumerate(cells):
            mix[i] += weight / z * (cell / total)
    return tuple(mix)


@pytest.mark.parametrize("case", ["unigram", "short_window", "not_closed", "trained", "many_talas"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_stepped_prior_state_equals_the_mixture_of_the_history(case, data):
    tables, history = data.draw(stepped_priors(case))
    stepped = TalaIndependentPrior(**tables)
    fresh = TalaIndependentPrior(**tables)  # its own memo
    state = stepped.start()
    for i in range(len(history) + 1):
        seen = history[:i]
        if i:
            state = stepped.advance(state, history[i - 1])
        assert state.key == prior_state_key(tables["window_counts"], tables["w_tau"], tables["n"], seen)
        assert stepped.dist(state) == dist_after(fresh, seen) == reference_mixture(tables, seen)


@PROPERTY_SETTINGS
@given(
    history=st.lists(STROKES, max_size=8),
    foreign=st.sampled_from((0, -1, ABC.num_playable + 1, 99)),
)
def test_advance_rejects_a_foreign_stroke(history, foreign):
    corpus = [StrokeSequence((1, 2, 3, 1), tala_label="t1")]
    ti = train_static_prior(corpus, ABC.num_playable, n=3, laplace_k=1.0, w_tau=2)
    state = ti.start()
    for stroke in history:
        state = ti.advance(state, stroke)
    with pytest.raises(VocabularyError):
        ti.advance(state, foreign)


@PROPERTY_SETTINGS
@given(
    corpus=st.lists(
        st.tuples(st.sampled_from(TALAS), st.lists(STROKES, min_size=1, max_size=12)), min_size=1, max_size=4
    ),
    wide=st.integers(1, 8),
)
def test_window_tables_nest(corpus, wide):
    # A table trained at window w is the wider table's windows of length <= w,
    # so the window a model was trained with fixes every narrower one.
    seqs = [StrokeSequence(tuple(strokes), tala_label=tala) for tala, strokes in corpus]
    def windows(w_tau):
        return train_static_prior(seqs, ABC.num_playable, n=1, laplace_k=1.0, w_tau=w_tau).window_counts

    full = windows(wide)
    for w in range(1, wide + 1):
        assert windows(w) == {tala: {u: c for u, c in table.items() if len(u) <= w} for tala, table in full.items()}


@PROPERTY_SETTINGS
@given(
    corpus=st.lists(
        st.tuples(st.sampled_from(TALAS), st.lists(STROKES, min_size=1, max_size=12)), min_size=1, max_size=4
    ),
    w_tau=st.integers(1, 6),
)
def test_window_counts_equal_the_oracle(corpus, w_tau):
    # Sequences run from 1 to 12 strokes, so both shorter and longer than w_tau.
    seqs = [StrokeSequence(tuple(strokes), tala_label=tala) for tala, strokes in corpus]
    trained = train_static_prior(seqs, ABC.num_playable, n=1, laplace_k=1.0, w_tau=w_tau)
    assert trained.window_counts == window_counts(corpus, w_tau)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_a_window_table_that_is_not_prefix_closed_round_trips(data):
    # The dump spells a window whose prefix is missing in full, and the
    # loader parses it in full.
    tables, _ = data.draw(stepped_priors("not_closed"))
    corpus = [StrokeSequence((1, 2), tala_label="t1")]
    model = RhythmModel(
        vocab=ABC, prior=TalaIndependentPrior(**tables), alpha0=init_alpha(corpus, ABC, eps_dir=1.0), eps_dir=1.0
    )
    text = dumps_model(model)
    loaded = loads_model(text)
    assert loaded == model
    assert dumps_model(loaded) == text


@st.composite
def trained_models(draw):
    """A model trained on a random corpus over a vocabulary of multi-character
    symbols, at a random order ``n`` and window ``w_tau``."""
    symbols = draw(st.lists(st.text("aAdhkK", min_size=2, max_size=5), min_size=1, max_size=5, unique=True))
    vocab = StrokeVocabulary.of(symbols)
    strokes = st.lists(st.integers(1, vocab.num_playable), min_size=1, max_size=12)
    corpus = [
        StrokeSequence(tuple(seq), tala_label=tala)
        for tala, seq in draw(st.lists(st.tuples(st.sampled_from(TALAS), strokes), min_size=1, max_size=4))
    ]
    return train_model(
        corpus,
        vocab,
        n=draw(st.integers(1, 3)),
        laplace_k=draw(st.sampled_from((1.0, 0.3))),
        w_tau=draw(st.integers(1, 5)),
        eps_dir=draw(st.sampled_from((1.0, 0.25))),
    )


@PROPERTY_SETTINGS
@given(model=trained_models())
def test_model_text_round_trip_is_exact(model):
    text = dumps_model(model)
    loaded = loads_model(text)
    assert loaded == model
    assert dumps_model(loaded) == text
