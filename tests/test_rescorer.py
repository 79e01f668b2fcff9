from __future__ import annotations

import math
import random

import numpy as np
import pytest

from talarescore.errors import RescoreError, VocabularyMismatchError
from talarescore.lattice import Arc, Lattice, viterbi_acoustic
from talarescore.rescorer import (
    ExpandedLattice,
    RescoreConfig,
    dumps_expanded,
    rescore,
    viterbi_expanded,
)

from .oracles import best_path_by_replay, ti_prior_dist

EXHAUSTIVE = RescoreConfig(k_beam=10**9, delta_beam=math.inf)


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
        {"delta_beam": math.nan},
        {"eps_jsd": 0.0},
        {"eps_jsd": math.nan},
        {"lambda_mode": "sometimes"},
        {"k_beam": 0},
        {"rho": 0.0},
        {"rho": 1.0},
    ],
    ids=["beta<0", "beta=nan", "delta_beam=nan", "eps_jsd=0", "eps_jsd=nan", "lambda_mode", "k_beam=0", "rho=0", "rho=1"],
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
            best_acc = max(exp.states[t].acc_score for t in exp.terminals)
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
    merged = [s for s in exp.states if s.node == 3]
    histories = {s.history[1:] for s in merged}
    assert len(merged) == 3
    assert histories == {(dha, dha), (dha, na), (tin, tin)}


def test_expanded_lattice_is_a_tree(vocab, small_model):
    rng = random.Random(8)
    lat = random_grid_lattice(vocab, rng, stages=5, width=3)
    _, exp, _ = rescore(lat, small_model, EXHAUSTIVE)
    for st in exp.states:
        if st.id == 0:
            assert st.parent is None
            assert st.history == (0,)
        else:
            assert st.parent is not None
            parent = exp.states[st.parent]
            assert st.history[:-1] == parent.history
            # depth equals history length minus the sentinel
            assert len(exp.arc_chain(st.id)) == len(st.history) - 1
    # Terminal scores equal the sum of arc weights along their chains.
    for t in exp.terminals:
        acc = 0.0
        st = exp.states[t]
        chain = []
        while st.parent is not None:
            chain.append(st.weight)
            st = exp.states[st.parent]
        for weight in reversed(chain):
            acc += weight
        assert acc == pytest.approx(exp.states[t].acc_score, abs=1e-12)


def test_fixed_lambda_traces_match_component_models(vocab, small_model):
    rng = random.Random(5)
    lat = random_grid_lattice(vocab, rng, stages=4, width=2)
    from talarescore.dynamic_model import predict

    for mode, pick in (("fixed:0", "static"), ("fixed:1", "dynamic")):
        cfg = RescoreConfig(
            k_beam=10**9, delta_beam=math.inf, lambda_mode=mode, collect_traces=True
        )
        _, exp, diag = rescore(lat, small_model, cfg)
        assert diag.traces
        for tr in diag.traces:
            state = exp.states[tr.state_id]
            if pick == "static":
                ref = np.array(ti_prior_dist(small_model, state.history[1:]))
            else:
                ref = predict(state.dirichlet, state.history[-1])
            assert np.max(np.abs(tr.p_comb - ref)) < 1e-12


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
            best_scores.append(max(exp.states[t].acc_score for t in exp.terminals))
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


def test_custom_next_stroke_prior_is_a_drop_in(vocab, small_model):
    import numpy as np

    class UniformPrior:
        def prob(self, history):
            n = vocab.num_playable
            return np.full(n, 1.0 / n)

    rng = random.Random(61)
    lat = random_grid_lattice(vocab, rng, stages=4, width=2)
    cfg = RescoreConfig(k_beam=10**9, delta_beam=math.inf, lambda_mode="fixed:0", beta=2.0)
    uniform_hyp, _, _ = rescore(lat, small_model, cfg, static_prior=UniformPrior())
    # With a uniform static-only prior the rhythmic term is constant per arc
    # count, so the decision reduces to the acoustic one.
    assert uniform_hyp.strokes == viterbi_acoustic(lat).strokes


def test_expanded_dump_contains_histories(vocab, small_model):
    arcs = (Arc(0, 1, 1, -1.0),)
    lat = Lattice(vocab=vocab, n_nodes=2, arcs=arcs, start=0, finals=frozenset({1}))
    _, exp, _ = rescore(lat, small_model, EXHAUSTIVE)
    text = dumps_expanded(exp)
    assert text.startswith("lattice v1\n")
    assert "# history 1 Dha" in text


def test_viterbi_expanded_picks_best_terminal_directly(vocab, small_model):
    from talarescore.rescorer import ExpandedState

    exp = ExpandedLattice(vocab=vocab)
    dirichlet = small_model.initial_dirichlet(rho=0.03)
    exp.states.append(
        ExpandedState(id=0, node=0, history=(0,), dirichlet=dirichlet, acc_score=0.0, parent=None, arc_id=None)
    )
    for sid, (label, score, arc_id) in enumerate([(1, -1.0, 0), (2, -2.0, 1)], start=1):
        exp.states.append(
            ExpandedState(
                id=sid, node=1, history=(0, label), dirichlet=dirichlet,
                acc_score=score, parent=0, arc_id=arc_id, weight=score,
            )
        )
        exp.terminals.append(sid)
    assert viterbi_expanded(exp).strokes == (1,)
