from __future__ import annotations

import gc
import hashlib
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from talarescore import rescorer
from talarescore.core import builtin_tala, can_host_tihai, default_vocabulary, generate_sequence
from talarescore.dynamic_model import DirichletState, update
from talarescore.errors import RescoreError, VocabularyMismatchError
from talarescore.eval import build_training_corpus, split_seed, standard_suite
from talarescore.fusion import combine, jsd, lambda_k
from talarescore.lattice import Arc, Lattice, LatticeGenConfig, generate_lattice, viterbi_acoustic
from talarescore.model import loads_model, train_model
from talarescore.rescorer import (
    ExpandedLattice,
    RescoreConfig,
    dumps_expanded,
    path_score,
    rescore,
    viterbi_expanded,
)

from .oracles import all_paths, best_path_by_replay, replay_path_score, ti_prior_dist
from .test_properties import PROPERTY_SETTINGS, small_dags

EXHAUSTIVE = RescoreConfig(k_beam=10**9, delta_beam=math.inf)
WIDE_PIN_SHA256 = "0c6912062dd98b89c9f915a9076508987e2ef4517272bd1252f8755e7c209268"
# The static-prior memo those decodes leave: its length and the sha256 of its
# keys, sorted by repr.
WIDE_PIN_MEMO = (283, "da57ac087908d21401454e43193cf3125fbc240b69ca6fee822d78b47578d2fd")


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
        {"delta_beam": math.nan},
        {"eps_jsd": 0.0},
        {"eps_jsd": math.nan},
        {"eps_jsd": math.inf},
        {"lambda_mode": "sometimes"},
        {"k_beam": 0},
        {"k_beam": 2.5},
        {"k_beam": True},
        {"rho": 0.0},
        {"rho": 1.0},
    ],
    ids=[
        "beta<0", "beta=nan", "beta=inf", "delta_beam=nan", "eps_jsd=0", "eps_jsd=nan", "eps_jsd=inf",
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
    cfg = RescoreConfig(beta=0.0, k_beam=10**9, delta_beam=math.inf)
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
    cfg = RescoreConfig(beta=0.0, k_beam=10**9, delta_beam=math.inf)
    hyp, _, _ = rescore(lat, small_model, cfg)
    assert hyp.strokes == viterbi_acoustic(lat).strokes == (4, 3)


def test_exhaustive_rescore_matches_replay_oracle(vocab, small_model):
    rng = random.Random(3)
    for trial in range(20):
        lat = random_grid_lattice(vocab, rng, stages=4, width=2)
        for mode in ("adaptive", "fixed:0.5"):
            cfg = RescoreConfig(k_beam=10**9, delta_beam=math.inf, lambda_mode=mode)
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
    from talarescore.dynamic_model import predict

    for mode, pick in (("fixed:0", "static"), ("fixed:1", "dynamic")):
        cfg = RescoreConfig(
            k_beam=10**9, delta_beam=math.inf, lambda_mode=mode, collect_traces=True
        )
        _, exp, diag = rescore(lat, small_model, cfg)
        suffix = max(small_model.tala_table.w_tau, small_model.prior.n - 1)
        # The Dirichlet state of each history, updated eagerly one transition
        # at a time; a parent pops before its children.
        eager = {(0,): small_model.initial_dirichlet(cfg.rho)}
        assert diag.traces
        for tr in diag.traces:
            history = exp.history(tr.state_id)
            if len(history) > 1:
                eager[history] = update(eager[history[:-1]], history[-2], history[-1])
            assert exp.prior_states[tr.state_id] == history[1:][-suffix:]
            if pick == "static":
                refs = [np.array(ti_prior_dist(small_model, history[1:]))]
            else:
                stored = DirichletState(exp.alphas[tr.state_id], cfg.rho)
                refs = [np.array(predict(state, history[-1])) for state in (stored, eager[history])]
            for ref in refs:
                assert np.max(np.abs(np.asarray(tr.p_comb) - ref)) < 1e-12


def test_beam_monotonicity_on_seeded_ensemble(vocab, small_model):
    rng = random.Random(99)
    settings = [
        RescoreConfig(k_beam=8, delta_beam=2.0),
        RescoreConfig(k_beam=50, delta_beam=6.0),
        RescoreConfig(k_beam=10**9, delta_beam=math.inf),
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
    cfg = RescoreConfig(collect_traces=True)
    h1, e1, d1 = rescore(lat, small_model, cfg)
    h2, e2, d2 = rescore(lat, small_model, cfg)
    assert h1 == h2
    assert dumps_expanded(e1) == dumps_expanded(e2)
    assert d1.pops == d2.pops and d1.pushes == d2.pushes
    assert len(d1.traces) == len(d2.traces)
    for a, b in zip(d1.traces, d2.traces):
        assert a.lam == b.lam and np.array_equal(a.p_comb, b.p_comb)


def test_narrow_beam_still_returns_a_terminal(vocab, small_model):
    rng = random.Random(21)
    lat = random_grid_lattice(vocab, rng, stages=6, width=3)
    hyp, exp, _ = rescore(lat, small_model, RescoreConfig(k_beam=1, delta_beam=0.0))
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
    assert viterbi_expanded(exp).strokes == (1,)


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


@pytest.mark.parametrize(
    "mode, traced", [("adaptive", False), ("fixed:0.5", True), ("fixed:0.5", False)],
    ids=["adaptive", "fixed-traced", "fixed"],
)
def test_eps_jsd_that_overflows_the_smoothing_is_a_rescore_error(vocab, small_model, mode, traced):
    # 1 + 5 * 1e308 overflows, which would make every divergence NaN; a
    # fixed weight without traces never computes one, so it still decodes.
    lat = random_grid_lattice(vocab, random.Random(61), stages=4, width=2)
    cfg = RescoreConfig(lambda_mode=mode, eps_jsd=1e308, collect_traces=traced)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if mode == "adaptive" or traced:
            with pytest.raises(RescoreError, match=r"eps_jsd=1e\+308 overflows"):
                rescore(lat, small_model, cfg)
        else:
            hyp, _, _ = rescore(lat, small_model, cfg)
            assert hyp.strokes == rescore(lat, small_model, replace(cfg, eps_jsd=1e-8))[0].strokes


def suite_lattices(per_tala):
    """The standard suite's model and its first ``per_tala`` test lattices of
    each tala, generated as ``bench`` generates them (streams 1 and 2 of the
    suite seed draw the truths and the lattice noise)."""
    suite = standard_suite()
    vocab = default_vocabulary()
    lats = []
    for t_idx, name in enumerate(suite.talas):
        tala = builtin_tala(name, vocab)
        dev = suite.deviation
        if not can_host_tihai(tala, dev.tihai):
            dev = replace(dev, p_tihai=0.0)
        for i in range(per_tala):
            idx = t_idx * 10_000 + i
            truth = generate_sequence(tala, suite.cycles, dev, split_seed(suite.seed, 1, idx), vocab)
            lat_cfg = LatticeGenConfig(
                rng_seed=split_seed(suite.seed, 2, idx),
                branching=suite.branching,
                noise_sigma=suite.noise_sigma,
                margin=suite.margin,
            )
            lats.append(generate_lattice(truth, lat_cfg, vocab))
    return train_model(build_training_corpus(suite, vocab), vocab), lats


@pytest.fixture(scope="module")
def standard_lattice():
    """The standard suite's first tintal test lattice and the suite's model."""
    model, lats = suite_lattices(1)
    return lats[0], model


# A beam narrow enough that both pruning rules cut on every decode.
WIDE_PIN_BEAM = {"k_beam": 80, "delta_beam": 3.0}
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


def test_decodes_are_pinned_where_both_pruning_rules_cut(wide_pin_decodes):
    """Hypotheses, expanded-lattice dumps and beam counters of 24 decodes,
    hashed together, so that no change to how the decode stores or scores
    its states can move a hypothesis, a dumped weight or a counter."""
    digest = hashlib.sha256()
    for _, _, cfg, (hyp, exp, diag) in wide_pin_decodes:
        assert diag.pruned_band > 0 and diag.pruned_capacity > 0
        counters = (diag.pops, diag.pushes, diag.pruned_band, diag.pruned_capacity, diag.max_queue_size)
        digest.update(f"{cfg.lambda_mode} hyp {' '.join(map(str, hyp.strokes))}\n".encode())
        digest.update(dumps_expanded(exp).encode())
        digest.update(f"counters {' '.join(map(str, counters))}\n".encode())
    assert digest.hexdigest() == WIDE_PIN_SHA256


def test_prior_memo_is_pinned_after_the_wide_pin_decodes(wide_pin_decodes):
    # Every decode shares the model's prior, so its memo holds one entry per
    # (window counts, context) key those decodes met.
    memo = wide_pin_decodes[0][1].static_prior()._cache
    keys = repr(sorted(memo, key=repr)).encode()
    assert (len(memo), hashlib.sha256(keys).hexdigest()) == WIDE_PIN_MEMO


def test_merged_window_counts_equal_the_per_tala_lookups(standard_lattice):
    _, model = standard_lattice
    table, ti = model.tala_table, model.static_prior()
    windows = set().union(*table.counts.values())
    rng = random.Random(13)
    unseen = {
        tuple(rng.randint(1, model.vocab.num_playable) for _ in range(rng.randint(1, table.w_tau)))
        for _ in range(2000)
    } - windows
    assert len(windows) > 1000 and len(unseen) > 1000
    for u in windows | unseen:
        expected = tuple(table.counts.get(t, {}).get(u, 0) for t in table.talas)
        assert ti._window_counts.get(u, ti._unseen) == expected


def test_repeated_decodes_hold_no_more_memory():
    # A long-running process: decoding the same lattices again adds no memo
    # entries, and no decode's scorer, with its per-decode divergence
    # halves, outlives the decode.
    model, lats = suite_lattices(2)
    sizes = []
    for _ in range(2):
        for lat in lats:
            rescore(lat, model, RescoreConfig())
        gc.collect()
        assert not any(type(obj) is rescorer._Scorer for obj in gc.get_objects())
        sizes.append(len(model.static_prior()._cache))
    assert sizes[1] <= sizes[0]


def test_adaptive_winners_pass_windows_where_the_tala_posterior_moves_the_prior():
    # Were the posterior the tala prior, every mixture would equal the one
    # under the prior alone; each winner meets training-seen windows where
    # it does not.
    model, lats = suite_lattices(2)
    ti, table = model.static_prior(), model.tala_table
    prior_only = table.posterior(())
    for lat in lats:
        hyp, _, _ = rescore(lat, model, RescoreConfig())
        state, moved = ti.start(), 0
        for stroke in hyp.strokes:
            state = ti.advance(state, stroke)
            if any(state[-table.w_tau :] in table.counts[t] for t in table.talas):
                ctx = model.prior.context_of(state)
                alone = sum(w * model.prior.distribution(t, ctx) for w, t in zip(prior_only, table.talas))
                moved += np.max(np.abs(np.asarray(ti.dist(state)) - alone)) > 1e-6
        assert moved >= 1, hyp.strokes


@pytest.mark.parametrize("mode", ["adaptive", "fixed:0.5"])
def test_traced_steps_equal_the_public_functions(standard_lattice, mode):
    lat, model = standard_lattice
    cfg = RescoreConfig(lambda_mode=mode, collect_traces=True)
    _, _, diag = rescore(lat, model, cfg)
    assert len(diag.traces) > 1000
    for tr in diag.traces:
        assert tr.divergence == jsd(tr.p_dyn, tr.p_static, cfg.eps_jsd)
        if mode == "adaptive":
            assert tr.lam == lambda_k(tr.confidence, tr.divergence)
        assert list(tr.p_comb) == combine(tr.p_static, tr.p_dyn, tr.lam)


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
    # Replaying a terminal's chain gives the decode's own bits.
    _, exp, _ = rescore(lat, small_model, cfg)
    for t in exp.terminals:
        assert path_score(lat, small_model, cfg, exp.arc_chain(t)) == exp.states.acc_score[t]


@pytest.mark.parametrize("k_beam", [150, 12])
def test_history_and_dirichlet_are_built_at_pop(monkeypatch, standard_lattice, k_beam):
    lat, model = standard_lattice
    # The decode's step observes transitions through the private helper
    # behind the public update().
    real_observe = rescorer._observe
    calls = []

    def counting_observe(alpha, rho, prev, nxt):
        calls.append((prev, nxt))
        return real_observe(alpha, rho, prev, nxt)

    monkeypatch.setattr(rescorer, "_observe", counting_observe)
    cfg = RescoreConfig(k_beam=k_beam, collect_traces=True)
    _, exp, diag = rescore(lat, model, cfg)
    monkeypatch.undo()

    # One trace per state popped with outgoing arcs; only those were updated.
    expanded = [tr.state_id for tr in diag.traces]
    assert expanded[0] == 0 and len(set(expanded)) == len(expanded)
    assert len(calls) == len(expanded) - 1
    assert diag.pruned_capacity > 0
    # States cut by capacity, or never popped, hold no snapshot.
    assert set(exp.prior_states) == set(exp.alphas) == set(expanded)

    # Every history, cut states included, extends its parent's by its stroke.
    cols = exp.states
    histories = {0: (0,)}
    assert exp.history(0) == (0,)
    for sid in range(1, len(cols)):
        histories[sid] = histories[cols.parent[sid]] + (cols.stroke[sid],)
        assert exp.history(sid) == histories[sid]

    # Each snapshot holds the last max(w_tau, n-1) strokes of its history as
    # the prior state, and a Dirichlet state bit-identical to the initial
    # state updated along its history one transition at a time.
    suffix = max(model.tala_table.w_tau, model.prior.n - 1)
    eager = {0: model.initial_dirichlet(cfg.rho)}
    for sid in sorted(exp.alphas):
        if sid:
            parent = cols.parent[sid]
            eager[sid] = update(eager[parent], exp.history(parent)[-1], cols.stroke[sid])
        assert exp.prior_states[sid] == exp.history(sid)[1:][-suffix:]
        assert np.array_equal(exp.alphas[sid], eager[sid].alpha)


def test_expanded_lattice_holds_one_row_per_pushed_state(standard_lattice):
    """Counters read ``len(exp.states)`` as the number of states: one row per
    push plus the root, in every column, and a snapshot for exactly the
    states popped with outgoing arcs."""
    lat, model = standard_lattice
    _, exp, diag = rescore(lat, model, RescoreConfig(collect_traces=True))
    cols = exp.states
    assert len(cols) == diag.pushes + 1
    for column in (cols.node, cols.parent, cols.arc_id, cols.stroke, cols.weight, cols.acc_score):
        assert len(column) == len(cols)
    assert set(exp.prior_states) == set(exp.alphas) == {tr.state_id for tr in diag.traces}
