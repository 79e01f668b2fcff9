from __future__ import annotations

import gc
import hashlib
import math
import random
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from talarescore import rescorer
from talarescore.core import SENTINEL_ID, default_vocabulary
from talarescore.errors import RescoreError, VocabularyMismatchError
from talarescore.eval import DEFAULT_LAMBDA_SWEEP, build_training_corpus, standard_suite, suite_test_set
from talarescore.fusion import _combine, lambda_k
from talarescore.lattice import Arc, Lattice, viterbi_acoustic
from talarescore.model import loads_model, train_model
from talarescore.rescorer import (
    ExpandedLattice,
    RescoreConfig,
    dumps_expanded,
    path_score,
    path_terms,
    rescore,
    viterbi_expanded,
)

from .helpers import PROPERTY_SETTINGS, dist_after, replayed_steps, small_dags, two_part_jsd
from .oracles import (
    EXHAUSTIVE,
    all_paths,
    best_path_by_replay,
    dirichlet_observe,
    dirichlet_predict,
    ngram_prob,
    path_count,
    replay_path_score,
    tala_posterior,
    ti_prior_dist,
)
from .reference_beam import assert_rescore_equals_reference

WIDE_PIN_SHA256 = "5b440ef7d8b9bef9b45d45006d1df142a8e7b87b546e797d1525e6e455d5da76"
# The static-prior memo those decodes leave: its length and the sha256 of its
# keys, sorted by repr.
WIDE_PIN_MEMO = (299, "2b120dde2972982e30557be34dd7c16de344673a31c24d2c04044aed95fe59cc")


def random_grid_lattice(vocab, rng, stages=4, width=2):
    arcs = []
    for stage in range(stages):
        labels = rng.sample(range(1, vocab.num_playable + 1), width)
        for lab in labels:
            arcs.append(Arc(stage, stage + 1, lab, rng.uniform(-3.0, 0.0)))
    return Lattice(
        vocab=vocab,
        n_nodes=stages + 1,
        arcs=tuple(arcs),
        start=0,
        finals=frozenset({stages}),
    )


@pytest.mark.parametrize(
    "bad",
    [
        {"beta": -0.1},
        {"beta": math.nan},
        {"beta": math.inf},
        {"lambda_mode": "sometimes"},
        {"k_beam": 0},
        {"k_beam": 2.5},
        {"k_beam": True},
        {"rho": 0.0},
        {"rho": 1.0},
    ],
    ids=[
        "beta<0", "beta=nan", "beta=inf",
        "lambda_mode", "k_beam=0", "k_beam=2.5", "k_beam=True", "rho=0", "rho=1",
    ],
)
def test_rescore_config_validation(bad):
    RescoreConfig()
    with pytest.raises(ValueError):
        RescoreConfig(**bad)


def test_single_path_lattice_returns_that_path(vocab, small_model):
    arcs = (Arc(0, 1, 1, -1.0), Arc(1, 2, 3, -0.5))
    lat = Lattice(vocab=vocab, n_nodes=3, arcs=arcs, start=0, finals=frozenset({2}))
    hyp, exp, _ = rescore(lat, small_model, EXHAUSTIVE)
    assert hyp.strokes == (1, 3)
    assert len(exp.terminals) == 1


def test_beta_zero_equals_acoustic_viterbi(vocab, small_model):
    rng = random.Random(17)
    cfg = replace(EXHAUSTIVE, beta=0.0)
    for _ in range(30):
        lat = random_grid_lattice(vocab, rng, stages=5, width=3)
        hyp, _, _ = rescore(lat, small_model, cfg)
        assert hyp.strokes == viterbi_acoustic(lat).strokes


def test_beta_zero_breaks_ties_like_acoustic_viterbi(vocab, small_model):
    # Equal-score parallel arcs: both tie-break on smallest arc ids.
    arcs = (
        Arc(0, 1, 4, -1.0),
        Arc(0, 1, 2, -1.0),
        Arc(1, 2, 3, -0.25),
    )
    lat = Lattice(vocab=vocab, n_nodes=3, arcs=arcs, start=0, finals=frozenset({2}))
    cfg = replace(EXHAUSTIVE, beta=0.0)
    hyp, _, _ = rescore(lat, small_model, cfg)
    assert hyp.strokes == viterbi_acoustic(lat).strokes == (4, 3)


def test_exhaustive_rescore_matches_replay_oracle(vocab, small_model):
    rng = random.Random(3)
    for trial in range(20):
        lat = random_grid_lattice(vocab, rng, stages=4, width=2)
        for mode in ("adaptive", "fixed:0.5"):
            cfg = replace(EXHAUSTIVE, lambda_mode=mode)
            hyp, exp, _ = rescore(lat, small_model, cfg)
            oracle_labels, oracle_score = best_path_by_replay(lat, small_model, cfg)
            assert hyp.strokes == oracle_labels
            best_acc = max(exp.states.acc_score[t] for t in exp.terminals)
            assert best_acc == pytest.approx(oracle_score, abs=1e-9)


def test_appendix_style_diamond_keeps_three_histories(vocab, small_model):
    dha, dhin, na, tin, ta = 1, 2, 3, 4, 5
    arcs = (
        Arc(0, 1, dha, -0.3),
        Arc(0, 2, tin, -0.6),
        Arc(1, 3, dha, -0.4),
        Arc(1, 3, na, -0.5),
        Arc(2, 3, tin, -0.2),
        Arc(3, 4, ta, -0.1),
    )
    lat = Lattice(vocab=vocab, n_nodes=5, arcs=arcs, start=0, finals=frozenset({4}))
    _, exp, _ = rescore(lat, small_model, EXHAUSTIVE)
    merged = [sid for sid, node in enumerate(exp.states.node) if node == 3]
    histories = {exp.history(sid)[1:] for sid in merged}
    assert len(merged) == 3
    assert histories == {(dha, dha), (dha, na), (tin, tin)}


def test_expanded_lattice_is_a_tree(vocab, small_model):
    rng = random.Random(8)
    lat = random_grid_lattice(vocab, rng, stages=5, width=3)
    _, exp, _ = rescore(lat, small_model, EXHAUSTIVE)
    cols = exp.states
    for sid in range(len(cols)):
        parent = cols.parent[sid]
        if sid == 0:
            assert parent is None
            assert exp.history(sid) == (0,)
        else:
            assert parent is not None
            assert exp.history(sid) == exp.history(parent) + (cols.stroke[sid],)
            # depth equals history length minus the sentinel
            assert len(exp.arc_chain(sid)) == len(exp.history(sid)) - 1
    # Terminal scores equal the sum of arc weights along their chains.
    for t in exp.terminals:
        acc = 0.0
        sid = t
        chain = []
        while cols.parent[sid] is not None:
            chain.append(cols.weight[sid])
            sid = cols.parent[sid]
        for weight in reversed(chain):
            acc += weight
        assert acc == pytest.approx(cols.acc_score[t], abs=1e-12)


def test_fixed_lambda_traces_match_component_models(vocab, small_model):
    rng = random.Random(5)
    lat = random_grid_lattice(vocab, rng, stages=4, width=2)
    for mode, pick in (("fixed:0", "static"), ("fixed:1", "dynamic")):
        cfg = replace(EXHAUSTIVE, lambda_mode=mode)
        _, exp, _ = rescore(lat, small_model, cfg)
        steps = replayed_steps(lat, small_model, cfg, exp)
        # The pseudo-counts of each history, updated eagerly one transition
        # at a time; a parent's id is below its children's.
        eager = {(0,): small_model.alpha0.tolist()}
        assert steps
        for sid in sorted(steps):
            tr = steps[sid]
            history = exp.history(sid)
            if len(history) > 1:
                eager[history] = dirichlet_observe(eager[history[:-1]], cfg.rho, history[-2], history[-1])
            if pick == "static":
                ref = ti_prior_dist(small_model, history[1:])
            else:
                ref = dirichlet_predict(eager[history], history[-1])
            assert np.max(np.abs(np.asarray(tr.p_comb) - np.array(ref))) < 1e-12


def test_beam_monotonicity_on_seeded_ensemble(vocab, small_model):
    rng = random.Random(99)
    settings = [
        RescoreConfig(k_beam=8),
        RescoreConfig(k_beam=50),
        EXHAUSTIVE,
    ]
    for _ in range(10):
        lat = random_grid_lattice(vocab, rng, stages=5, width=3)
        best_scores = []
        for cfg in settings:
            _, exp, _ = rescore(lat, small_model, cfg)
            best_scores.append(max(exp.states.acc_score[t] for t in exp.terminals))
        assert best_scores[0] <= best_scores[1] + 1e-12
        assert best_scores[1] <= best_scores[2] + 1e-12


def test_rescore_is_deterministic(vocab, small_model):
    rng = random.Random(12)
    lat = random_grid_lattice(vocab, rng, stages=5, width=3)
    cfg = RescoreConfig()
    h1, e1, d1 = rescore(lat, small_model, cfg)
    h2, e2, d2 = rescore(lat, small_model, cfg)
    assert h1 == h2
    assert dumps_expanded(e1) == dumps_expanded(e2)
    assert d1 == d2
    s1, s2 = replayed_steps(lat, small_model, cfg, e1), replayed_steps(lat, small_model, cfg, e2)
    assert s1.keys() == s2.keys()
    for sid, a in s1.items():
        b = s2[sid]
        assert a.lam == b.lam and np.array_equal(a.p_comb, b.p_comb)


def test_narrow_beam_still_returns_a_terminal(vocab, small_model):
    rng = random.Random(21)
    lat = random_grid_lattice(vocab, rng, stages=6, width=3)
    hyp, exp, _ = rescore(lat, small_model, RescoreConfig(k_beam=1))
    assert len(hyp) == 6
    assert exp.terminals


def test_viterbi_expanded_empty_terminals_raises(vocab):
    exp = ExpandedLattice(vocab=vocab)
    with pytest.raises(RescoreError, match="terminal"):
        viterbi_expanded(exp)


def test_vocabulary_mismatch_is_reported(small_model):
    from talarescore.core import StrokeVocabulary

    foreign = StrokeVocabulary.of(["Dha", "Zup"])
    arcs = (Arc(0, 1, foreign.id_of("Zup"), -1.0),)
    lat = Lattice(vocab=foreign, n_nodes=2, arcs=arcs, start=0, finals=frozenset({1}))
    with pytest.raises(VocabularyMismatchError, match="Zup"):
        rescore(lat, small_model, EXHAUSTIVE)


def test_label_remapping_by_symbol(small_model):
    from talarescore.core import StrokeVocabulary

    # Same symbols, different id layout: outputs are in model id space.
    shuffled = StrokeVocabulary.of(["Tin", "Dha", "Na", "Ta", "Dhin"])
    arcs = (
        Arc(0, 1, shuffled.id_of("Dha"), -0.5),
        Arc(1, 2, shuffled.id_of("Tin"), -0.5),
    )
    lat = Lattice(vocab=shuffled, n_nodes=3, arcs=arcs, start=0, finals=frozenset({2}))
    hyp, _, _ = rescore(lat, small_model, EXHAUSTIVE)
    assert hyp.to_symbols(small_model.vocab) == ("Dha", "Tin")


def test_expanded_dump_contains_histories(vocab, small_model):
    arcs = (Arc(0, 1, 1, -1.0),)
    lat = Lattice(vocab=vocab, n_nodes=2, arcs=arcs, start=0, finals=frozenset({1}))
    _, exp, _ = rescore(lat, small_model, EXHAUSTIVE)
    text = dumps_expanded(exp)
    assert text.startswith("lattice v1\n")
    assert "# history 1 Dha" in text


def test_viterbi_expanded_picks_best_terminal_directly(vocab, small_model):
    exp = ExpandedLattice(vocab=vocab)
    cols = exp.states
    rows = [(0, None, None, 0, 0.0, 0.0), (1, 0, 0, 1, -1.0, -1.0), (1, 0, 1, 2, -2.0, -2.0)]
    for node, parent, arc_id, stroke, weight, acc_score in rows:
        cols.node.append(node)
        cols.parent.append(parent)
        cols.arc_id.append(arc_id)
        cols.stroke.append(stroke)
        cols.weight.append(weight)
        cols.acc_score.append(acc_score)
    exp.terminals.extend([1, 2])
    assert viterbi_expanded(exp) == 1


def test_viterbi_expanded_is_linear_on_tied_terminals(vocab, small_model):
    # At beta 0 every weight is its arc's score, 0.0 on this sausage, so its
    # 178k terminals all tie.  Settling each tie by rebuilding both arc
    # chains from the root took about 5 s, and walking both back to where
    # they meet about 1.5 s.
    n = 400
    arcs = tuple(Arc(k, k + 1, (k + j) % 3 + 1, 0.0) for k in range(n) for j in range(3))
    lat = Lattice(vocab=vocab, n_nodes=n + 1, arcs=arcs, start=0, finals=frozenset(range(1, n + 1)))
    hyp, exp, diag = rescore(lat, small_model, RescoreConfig(beta=0.0))
    began = time.perf_counter()
    best = viterbi_expanded(exp)
    assert time.perf_counter() - began < 1.0
    # Every node is final, so the start's first arc alone wins: a prefix first.
    assert best == diag.best_state
    assert exp.arc_chain(best) == (0,)
    assert hyp.strokes == (1,)


def test_zero_combined_probability_from_a_model_file_is_a_rescore_error(vocab):
    # laplace_k is so small beside the count that Ta's n-gram probability
    # after the empty context underflows to 0; the file still loads, since
    # laplace_k times the tala prior is positive.
    model = loads_model(
        "tiprior v1\nn 3\nlaplace_k 1e-310\nw_tau 4\neps_dir 1.0\nvocab Dha Dhin Na Tin Ta\n"
        "tala t 1.0\ncount t <s> <s> Dha 9007199254740992\n"
    )
    arcs = (Arc(0, 1, vocab.id_of("Dha"), -0.5), Arc(0, 1, vocab.id_of("Ta"), -0.5))
    lat = Lattice(vocab=vocab, n_nodes=2, arcs=arcs, start=0, finals=frozenset({1}))
    with pytest.raises(
        RescoreError,
        match=r"^state 0 \(node 0\), arc 1: combined probability 0\.0 of Ta is not a finite positive number$",
    ):
        rescore(lat, model, RescoreConfig(lambda_mode="fixed:0"))


def underflowing_row_lattice(vocab, repeats=400):
    """``Dha`` ``repeats`` times, then ``Ta``, then ``Dha``: under a high
    forgetting rate the Ta row, never observed, decays to all zeros."""
    labels = ["Dha"] * repeats + ["Ta", "Dha"]
    arcs = tuple(Arc(i, i + 1, vocab.id_of(s), -0.5) for i, s in enumerate(labels))
    return Lattice(vocab=vocab, n_nodes=len(arcs) + 1, arcs=arcs, start=0, finals=frozenset({len(arcs)}))


def test_dirichlet_row_underflow_is_a_rescore_error(vocab, small_model):
    lat = underflowing_row_lattice(vocab)
    cfg = RescoreConfig(rho=0.9)
    match = r"^state 401 \(node 401\): the Dirichlet row after Ta underflowed to zero \(rho=0\.9\)$"
    with pytest.raises(RescoreError, match=match):
        rescore(lat, small_model, cfg)
    with pytest.raises(RescoreError, match=match):
        path_score(lat, small_model, cfg, range(len(lat.arcs)))


@pytest.mark.parametrize(
    "beta, match",
    [
        (1e308, r"state 0 \(node 0\), arc \d+: rescored weight -inf .* not finite"),
        (1e307, r"terminal state \d+: accumulated score -inf is not finite"),
    ],
    ids=["weight", "sum"],
)
def test_overflowing_score_is_a_rescore_error(vocab, small_model, beta, match):
    # beta is finite, but beta * log(p), or the sum of such weights along a
    # path, overflows to -inf; a decode of infinite scores would pick its
    # path by the arc-id tie-break alone.
    lat = random_grid_lattice(vocab, random.Random(61), stages=20, width=2)
    with pytest.raises(RescoreError, match=match):
        rescore(lat, small_model, RescoreConfig(beta=beta))


def suite_lattices(per_tala):
    """The standard suite's model and its first ``per_tala`` test lattices of
    each tala, the ones ``bench`` decodes."""
    suite = standard_suite()
    vocab = default_vocabulary()
    pairs = suite_test_set(replace(suite, test_per_tala=per_tala), vocab)
    return train_model(build_training_corpus(suite, vocab), vocab), [lat for _, lat in pairs]


@pytest.fixture(scope="module")
def standard_lattice():
    """The standard suite's first tintal test lattice and the suite's model."""
    model, lats = suite_lattices(1)
    return lats[0], model


@pytest.mark.parametrize("mode", DEFAULT_LAMBDA_SWEEP)
def test_rescore_equals_the_reference_beam_on_short_suite_lattices(standard_lattice, mode):
    # One cycle of each tala: 7 to 16 strokes, with far more histories than the beam keeps.
    _, model = standard_lattice
    k_beam = 10
    suite = replace(standard_suite(), cycles=1, test_per_tala=1)
    for _, lat in suite_test_set(suite, default_vocabulary()):
        assert path_count(lat) > k_beam
        assert_rescore_equals_reference(lat, model, RescoreConfig(k_beam=k_beam, lambda_mode=mode))


# A beam narrow enough that it cuts on every decode.
WIDE_PIN_BEAM = {"k_beam": 80}
WIDE_PIN_MODES = ("adaptive", "fixed:0", "fixed:0.5")


@pytest.fixture(scope="module")
def wide_pin_decodes():
    """Two standard-suite lattices per tala, decoded in each pinned mode."""
    model, lats = suite_lattices(2)
    decodes = []
    for lat in lats:
        for mode in WIDE_PIN_MODES:
            cfg = RescoreConfig(lambda_mode=mode, **WIDE_PIN_BEAM)
            decodes.append((lat, model, cfg, rescore(lat, model, cfg)))
    return decodes


def test_decodes_are_pinned_where_the_beam_cuts(wide_pin_decodes):
    """Hypotheses, expanded-lattice dumps and beam counters of 24 decodes,
    hashed together, so that no change to how the decode stores or scores
    its states can move a hypothesis, a dumped weight or a counter."""
    digest = hashlib.sha256()
    for _, _, cfg, (hyp, exp, diag) in wide_pin_decodes:
        assert diag.pruned_capacity > 0
        # Every pushed state and the root leave the queue once, popped or cut.
        assert diag.pops + diag.pruned_capacity == diag.pushes + 1
        counters = (diag.pops, diag.pushes, diag.pruned_capacity, diag.max_queue_size)
        digest.update(f"{cfg.lambda_mode} hyp {' '.join(map(str, hyp.strokes))}\n".encode())
        digest.update(dumps_expanded(exp).encode())
        digest.update(f"counters {' '.join(map(str, counters))}\n".encode())
    assert digest.hexdigest() == WIDE_PIN_SHA256


def test_each_decode_scores_at_most_one_state_per_pop(wide_pin_decodes, standard_lattice):
    for _, _, _, (_, _, diag) in wide_pin_decodes:
        assert 0 < diag.scored <= diag.pops
    # About half the standard lattice's pops repeat a key an earlier state
    # scored; a key that stopped hitting (one holding the state id, say)
    # would score every pop with outgoing arcs.
    lat, model = standard_lattice
    _, _, diag = rescore(lat, model, RescoreConfig())
    assert diag.scored < 0.7 * diag.pops


def test_prior_memo_is_pinned_after_the_wide_pin_decodes(wide_pin_decodes):
    # Every decode shares the model's prior, so its memo holds one entry per
    # (window counts, context) key those decodes met.
    memo = wide_pin_decodes[0][1].prior._cache
    keys = repr(sorted(memo, key=repr)).encode()
    assert (len(memo), hashlib.sha256(keys).hexdigest()) == WIDE_PIN_MEMO


def test_merged_window_counts_equal_the_per_tala_lookups(standard_lattice):
    _, model = standard_lattice
    ti = model.prior
    windows = set().union(*ti.window_counts.values())
    rng = random.Random(13)
    unseen = {
        tuple(rng.randint(1, model.vocab.num_playable) for _ in range(rng.randint(1, ti.w_tau)))
        for _ in range(2000)
    } - windows
    assert len(windows) > 1000 and len(unseen) > 1000
    probe = ti._window_probe()
    for u in windows | unseen:
        expected = tuple(ti.window_counts[t].get(u, 0) for t in ti.talas)
        assert probe.get(u, ti._unseen) == expected


def test_repeated_decodes_hold_no_more_memory():
    # A long-running process: decoding the same lattices again adds no memo
    # entries and no prior automaton nodes, and no decode's scorer, with its
    # per-decode divergence halves, outlives the decode.
    model, lats = suite_lattices(2)
    sizes, nodes = [], []
    for _ in range(2):
        for lat in lats:
            rescore(lat, model, RescoreConfig())
        gc.collect()
        assert not any(type(obj) is rescorer._Scorer for obj in gc.get_objects())
        sizes.append(len(model.prior._cache))
        nodes.append(len(model.prior._nodes))
    assert sizes[1] <= sizes[0]
    assert nodes[1] == nodes[0]


def test_threads_sharing_one_model_decode_as_one_thread_does():
    # The prior builds its automaton nodes, their transitions and its memo
    # entries on first use, so threads that share a fresh model race to
    # build them; each decode must still give the serial decode's bits, and
    # each transition must lead to the one node of its key.
    vocab = default_vocabulary()
    suite = standard_suite()
    lats = [lat for _, lat in suite_test_set(replace(suite, cycles=1, test_per_tala=1), vocab)]
    assert len(lats) == 4

    def fresh_model():
        return train_model(build_training_corpus(suite, vocab), vocab)

    def decode(lat, model):
        hyp, exp, diag = rescore(lat, model, RescoreConfig())
        return hyp, diag, hashlib.sha256(dumps_expanded(exp).encode()).hexdigest()

    serial_model = fresh_model()
    expected = [decode(lat, serial_model) for lat in lats]
    shared = fresh_model()
    # Four threads, more than the two cores of the machine this was written
    # on.  All start on one lattice, so that they race to build the same
    # nodes, then part.
    orders = [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 1, 3, 2)]
    barrier = threading.Barrier(len(orders))
    results, errors = [], []

    def work(order):
        try:
            barrier.wait(timeout=60)
            for i in order:
                results.append((i, decode(lats[i], shared)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(i for i, _ in results) == sorted(i for order in orders for i in order)
    for i, got in results:
        assert got == expected[i]
    nodes = shared.prior._nodes
    for node in nodes.values():
        assert all(target is None or target is nodes[target.key] for target in node.next)


def test_adaptive_winners_pass_windows_where_the_tala_posterior_moves_the_prior():
    # Were the posterior the tala prior, every mixture would equal the one
    # under the prior alone; each winner meets training-seen windows where
    # it does not.
    model, lats = suite_lattices(2)
    ti = model.prior
    prior_only = tala_posterior(ti.window_counts, ti.tala_priors, ti.laplace_k, ())
    v, k = ti.num_playable, ti.laplace_k
    for lat in lats:
        hyp, _, _ = rescore(lat, model, RescoreConfig())
        state, history, moved = ti.start(), (), 0
        for stroke in hyp.strokes:
            state, history = ti.advance(state, stroke), history + (stroke,)
            if any(history[-ti.w_tau :] in ti.window_counts[t] for t in ti.talas):
                ctx = ((SENTINEL_ID,) * (ti.n - 1) + history)[len(history) :]
                rows = {t: [ngram_prob(ti.counts, v, k, t, ctx, q) for q in range(1, v + 1)] for t in ti.talas}
                alone = [sum(w * rows[t][i] for t, w in prior_only.items()) for i in range(v)]
                moved += max(abs(a - b) for a, b in zip(ti.dist(state), alone)) > 1e-6
        assert moved >= 1, hyp.strokes


@pytest.mark.parametrize("mode", ["adaptive", "fixed:0.5"])
def test_replayed_steps_equal_the_fusion_formulas(standard_lattice, mode):
    lat, model = standard_lattice
    cfg = RescoreConfig(lambda_mode=mode)
    _, exp, _ = rescore(lat, model, cfg)
    steps = replayed_steps(lat, model, cfg, exp)
    assert len(steps) > 1000
    for tr in steps.values():
        if mode == "adaptive":
            assert tr.divergence == two_part_jsd(tr.p_dyn, tr.p_static)
            assert tr.lam == lambda_k(tr.confidence, tr.divergence)
        else:
            # A fixed weight computes neither term.
            assert math.isnan(tr.confidence) and math.isnan(tr.divergence)
        assert list(tr.p_comb) == _combine(tr.p_static, tr.p_dyn, tr.lam)


def test_path_score_of_the_winner_is_its_acc_score(wide_pin_decodes):
    for lat, model, cfg, (hyp, exp, _) in wide_pin_decodes:
        acc = exp.states.acc_score
        best = max(acc[t] for t in exp.terminals)
        winners = [t for t in exp.terminals if acc[t] == best]
        assert hyp.strokes in {exp.history(t)[1:] for t in winners}
        for t in winners:
            assert path_score(lat, model, cfg, exp.arc_chain(t)) == acc[t]


def test_path_score_rejects_a_broken_chain(vocab, small_model):
    arcs = (Arc(0, 1, 1, -1.0), Arc(1, 2, 3, -0.5), Arc(0, 2, 2, -2.0))
    lat = Lattice(vocab=vocab, n_nodes=3, arcs=arcs, start=0, finals=frozenset({2}))
    assert path_score(lat, small_model, EXHAUSTIVE, ()) == 0.0
    with pytest.raises(ValueError, match="arc 1 does not leave node 0"):
        path_score(lat, small_model, EXHAUSTIVE, (1,))
    with pytest.raises(ValueError, match="arc 2 does not leave node 1"):
        path_score(lat, small_model, EXHAUSTIVE, (0, 2))


@pytest.mark.parametrize("mode", ["adaptive", "fixed:0", "fixed:0.5"])
@PROPERTY_SETTINGS
@given(lat=small_dags())
def test_path_score_matches_replay_oracle_on_small_dags(small_model, mode, lat):
    cfg = replace(EXHAUSTIVE, lambda_mode=mode)
    for arc_ids, _, _ in all_paths(lat):
        oracle = replay_path_score(lat, small_model, cfg, arc_ids)
        assert path_score(lat, small_model, cfg, arc_ids) == pytest.approx(oracle, abs=1e-9)
    # Replaying a terminal's chain gives the decode's own bits, and so does
    # each pushed state's own arc.
    _, exp, _ = rescore(lat, small_model, cfg)
    for t in exp.terminals:
        assert path_score(lat, small_model, cfg, exp.arc_chain(t)) == exp.states.acc_score[t]
    for sid in range(1, len(exp.states)):
        chain = exp.arc_chain(sid)
        assert path_terms(lat, small_model, cfg, chain)[-1].weight == exp.states.weight[sid]


@pytest.mark.parametrize("k_beam", [150, 12])
def test_history_and_dirichlet_are_built_at_pop(monkeypatch, standard_lattice, k_beam):
    lat, model = standard_lattice
    # The decode's step observes transitions through dynamic_model._observe.
    real_observe = rescorer._observe
    calls = []

    def counting_observe(alpha, rho, prev, nxt):
        calls.append((prev, nxt))
        return real_observe(alpha, rho, prev, nxt)

    monkeypatch.setattr(rescorer, "_observe", counting_observe)
    cfg = RescoreConfig(k_beam=k_beam)
    _, exp, diag = rescore(lat, model, cfg)
    monkeypatch.undo()

    # Only the states popped with outgoing arcs, those with children, were
    # updated, one transition each beyond the root; states cut by capacity,
    # or never popped, cost none.
    cols = exp.states
    expanded = sorted(set(cols.parent[1:]))
    assert expanded[0] == 0
    assert len(calls) == len(expanded) - 1
    assert diag.pruned_capacity > 0

    # Every history, cut states included, extends its parent's by its stroke.
    histories = {0: (0,)}
    assert exp.history(0) == (0,)
    for sid in range(1, len(cols)):
        histories[sid] = histories[cols.parent[sid]] + (cols.stroke[sid],)
        assert exp.history(sid) == histories[sid]

    # Each expanded state's replayed step predicts from pseudo-counts
    # bit-identical to the model's initial ones updated along its history one
    # transition at a time, and reads the static prior stepped along it.
    steps = replayed_steps(lat, model, cfg, exp)
    eager = {0: model.alpha0.tolist()}
    for sid in expanded:
        if sid:
            parent = cols.parent[sid]
            eager[sid] = dirichlet_observe(eager[parent], cfg.rho, exp.history(parent)[-1], cols.stroke[sid])
        assert steps[sid].p_dyn == dirichlet_predict(eager[sid], cols.stroke[sid])
        assert steps[sid].p_static == dist_after(model.prior, exp.history(sid)[1:])


@pytest.mark.parametrize("k_beam", [150, 12])
def test_a_decode_holds_at_most_k_beam_plus_one_snapshots(monkeypatch, standard_lattice, k_beam):
    lat, model = standard_lattice
    # Every Dirichlet snapshot past the root's is made by dynamic_model._observe.
    real_observe = rescorer._observe
    alive = []
    most = calls = 0

    def tracking_observe(alpha, rho, prev, nxt):
        nonlocal most, calls
        out = real_observe(alpha, rho, prev, nxt)
        calls += 1
        alive[:] = [ref for ref in alive if ref() is not None]
        alive.append(weakref.ref(out))
        most = max(most, len(alive))
        return out

    monkeypatch.setattr(rescorer, "_observe", tracking_observe)
    rescore(lat, model, RescoreConfig(k_beam=k_beam))
    monkeypatch.undo()
    # The queue's entries, the popped parent's and the new one; a decode that
    # kept every snapshot would hold one per call.
    assert most <= k_beam + 1
    assert calls > 2 * (k_beam + 1)


def test_expanded_lattice_holds_one_row_per_pushed_state(standard_lattice):
    """Counters read ``len(exp.states)`` as the number of states: one row per
    push plus the root, in every column."""
    lat, model = standard_lattice
    _, exp, diag = rescore(lat, model, RescoreConfig())
    cols = exp.states
    assert len(cols) == diag.pushes + 1
    for column in (cols.node, cols.parent, cols.arc_id, cols.stroke, cols.weight, cols.acc_score):
        assert len(column) == len(cols)


def test_decoding_leaves_the_model_alpha0_unchanged(vocab, small_model):
    # The root's snapshot is the model's own array, so no step may write to it.
    alpha0 = small_model.alpha0.copy()
    lat = random_grid_lattice(vocab, random.Random(3))
    cfg = RescoreConfig()
    _, exp, diag = rescore(lat, small_model, cfg)
    path_terms(lat, small_model, cfg, exp.arc_chain(diag.best_state))
    assert np.array_equal(small_model.alpha0, alpha0)
