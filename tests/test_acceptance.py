"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Equality-against-oracle
checks run with exhaustive beam settings on enumerable lattices, where beam
truncation cannot change the argmax; the trend criteria run the full standard
synthetic suite at its decode defaults.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from talarescore.core import StrokeSequence, default_vocabulary
from talarescore.dynamic_model import _observe, _predict
from talarescore.eval import (
    BASELINE_LABEL,
    build_training_corpus,
    run_benchmark,
    ser,
    standard_suite,
)
from talarescore.fusion import LOG2, _combine, acoustic_confidence, lambda_k
from talarescore.lattice import (
    Arc,
    Lattice,
    LatticeGenConfig,
    dumps_lattice,
    generate_lattice,
    viterbi_acoustic,
)
from talarescore.model import train_model
from talarescore.rescorer import rescore

from .helpers import dist_after, replayed_steps, two_part_jsd
from .oracles import (
    EXHAUSTIVE,
    best_path_by_replay,
    dirichlet_observe,
    dirichlet_predict,
    levenshtein_distance,
    path_count,
    ti_prior_dist,
)

# sha256 of the small ensemble's lattices, dumped and joined in order.
ENSEMBLE_SHA256 = "2c7863b05df7dd2655e5ed54e4dab7dc13b871e1b3a7ccf5200adc135e2af5d9"


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS: {desc}")


@pytest.fixture(scope="module")
def suite():
    return standard_suite()


@pytest.fixture(scope="module")
def vocab():
    return default_vocabulary()


@pytest.fixture(scope="module")
def model(suite, vocab):
    corpus = build_training_corpus(suite, vocab)
    return train_model(
        corpus, vocab, n=suite.n, laplace_k=suite.laplace_k,
        w_tau=suite.w_tau, eps_dir=suite.eps_dir,
    )


@pytest.fixture(scope="module")
def small_lattice_ensemble(vocab):
    """100 seeded random lattices, each with at most 200 paths, pinned by
    the sha256 of their dumps so that a change to the filter shows."""
    rng = random.Random(20240815)
    lats = []
    attempt = 0
    while len(lats) < 100:
        attempt += 1
        assert attempt < 2000, "ensemble construction ran away"
        if attempt % 2:
            stages = rng.randrange(3, 6)
            width = rng.choice((2, 3))
            arcs = []
            for stage in range(stages):
                for lab in rng.sample(range(1, vocab.num_playable + 1), width):
                    arcs.append(Arc(stage, stage + 1, lab, rng.uniform(-3.0, 0.0)))
            lat = Lattice(
                vocab=vocab, n_nodes=stages + 1, arcs=tuple(arcs),
                start=0, finals=frozenset({stages}),
            )
        else:
            truth = StrokeSequence(
                tuple(rng.randrange(1, vocab.num_playable + 1) for _ in range(rng.randrange(4, 7)))
            )
            cfg = LatticeGenConfig(
                rng_seed=attempt, branching=2, noise_sigma=1.0, p_del=0.3, p_ins=0.3
            )
            lat = generate_lattice(truth, cfg, vocab)
        if path_count(lat) <= 200:
            lats.append(lat)
    assert hashlib.sha256("".join(dumps_lattice(l) for l in lats).encode()).hexdigest() == ENSEMBLE_SHA256
    return lats


@pytest.fixture(scope="module")
def benchmark_report(suite):
    t0 = time.perf_counter()
    report = run_benchmark(suite)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_1_exhaustive_oracle_equivalence(small_lattice_ensemble, model):
    with criterion(1, "exhaustive rescoring equals the path-replay oracle on 100 lattices"):
        t0 = time.perf_counter()
        matches = 0
        for lat in small_lattice_ensemble:
            hyp, _, _ = rescore(lat, model, EXHAUSTIVE)
            oracle_labels, _ = best_path_by_replay(lat, model, EXHAUSTIVE)
            assert hyp.strokes == oracle_labels
            matches += 1
        elapsed = time.perf_counter() - t0
        assert matches == 100
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_degeneracy_identities(small_lattice_ensemble, model):
    with criterion(2, "beta=0 equals acoustic Viterbi; fixed lambdas reduce to one component"):
        beta0 = replace(EXHAUSTIVE, beta=0.0)
        for lat in small_lattice_ensemble:
            hyp, _, _ = rescore(lat, model, beta0)
            assert hyp.strokes == viterbi_acoustic(lat).strokes
        for lat in small_lattice_ensemble[:8]:
            for mode, component in (("fixed:0", "static"), ("fixed:1", "dynamic")):
                cfg = replace(EXHAUSTIVE, lambda_mode=mode)
                _, exp, _ = rescore(lat, model, cfg)
                steps = replayed_steps(lat, model, cfg, exp)
                # The pseudo-counts of each history, updated eagerly one
                # transition at a time; a parent's id is below its children's.
                eager = {(0,): model.alpha0.tolist()}
                assert steps
                for sid in sorted(steps):
                    tr = steps[sid]
                    history = exp.history(sid)
                    if len(history) > 1:
                        eager[history] = dirichlet_observe(eager[history[:-1]], cfg.rho, history[-2], history[-1])
                    if component == "static":
                        ref = ti_prior_dist(model, history[1:])
                    else:
                        ref = dirichlet_predict(eager[history], history[-1])
                    assert np.max(np.abs(np.asarray(tr.p_comb) - np.array(ref))) < 1e-12


def test_criterion_3_numerical_invariants(model, vocab):
    with criterion(3, "distribution, JSD, confidence, and lambda invariants over 1e4 trials"):
        rng = random.Random(7)
        n = vocab.num_playable
        trials = 10_000

        # Emitted distributions: mixture prior, dynamic prediction, combination.
        static = model.prior
        alpha = model.alpha0
        for i in range(trials):
            history = tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(0, 24)))
            p_static = np.asarray(dist_after(static, history))
            prev = history[-1] if history else 0
            p_dyn = np.asarray(_predict(alpha, prev))
            lam = lambda_k(rng.random(), rng.uniform(0.0, LOG2))
            p_comb = np.asarray(_combine(p_static, p_dyn, lam))
            for dist in (p_static, p_dyn, p_comb):
                assert abs(float(dist.sum()) - 1.0) < 1e-9
                assert (dist > 0.0).all()
            assert 0.0 <= lam <= 1.0
            if i % 10 == 0:
                alpha = _observe(alpha, 0.03, prev, rng.randrange(1, n + 1))

        # JSD bounds and exact symmetry.
        for _ in range(trials):
            k = rng.randrange(2, 8)
            p = np.array([rng.random() + 1e-9 for _ in range(k)])
            q = np.array([rng.random() + 1e-9 for _ in range(k)])
            p /= p.sum()
            q /= q.sum()
            d_pq = two_part_jsd(p, q, 1e-8)
            assert d_pq == two_part_jsd(q, p, 1e-8)
            assert 0.0 <= d_pq <= LOG2 + 1e-12

        # Acoustic confidence bounds and pinned endpoints.
        for _ in range(trials):
            k = rng.randrange(1, 8)
            scores = [rng.uniform(-700.0, 700.0) for _ in range(k)]
            assert 0.0 <= acoustic_confidence(scores) <= 1.0
            assert acoustic_confidence([rng.uniform(-5, 5)]) == 1.0
            assert acoustic_confidence([rng.uniform(-5, 5)] * rng.randrange(2, 8)) == 0.0

        # Interpolation weight bounds.
        for _ in range(trials):
            assert 0.0 <= lambda_k(rng.random(), rng.uniform(0.0, LOG2)) <= 1.0


def test_criterion_4_dirichlet_dynamics(model):
    with criterion(4, "fixed point, geometric matrix-total convergence, monotone adaptation"):
        # Fixed point: a cell at exactly 1 stays exactly 1 under its own updates.
        n = model.vocab.num_playable
        alpha = np.ones((n + 1, n))
        for _ in range(100):
            alpha = _observe(alpha, 0.03, 1, 2)
            assert alpha[1, 1] == 1.0

        # Matrix total converges to 1 at rate (1 - rho).
        alpha = model.alpha0
        t0 = float(alpha.sum())
        for k in range(1, 2001):
            alpha = _observe(alpha, 0.03, 1, 2)
            expected = 1.0 + (0.97**k) * (t0 - 1.0)
            assert float(alpha.sum()) == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert abs(float(alpha.sum()) - 1.0) <= 1e-9

        # Repeated identical transitions drive the predicted probability
        # toward 1, monotonically (strictly until float saturation near 1).
        alpha = model.alpha0
        last = float(_predict(alpha, 1)[1])
        for _ in range(2000):
            alpha = _observe(alpha, 0.03, 1, 2)
            cur = float(_predict(alpha, 1)[1])
            assert cur >= last
            if last < 1.0 - 1e-12:
                assert cur > last
            last = cur
        assert last > 0.999


def test_criterion_5_state_expansion_keeps_merged_histories(model, vocab):
    with criterion(5, "three histories merging at one node expand into three states"):
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
        _, exp, _ = rescore(lat, model, EXHAUSTIVE)
        merged = [sid for sid, node in enumerate(exp.states.node) if node == 3]
        assert len(merged) == 3
        assert {exp.history(sid)[1:] for sid in merged} == {(dha, dha), (dha, na), (tin, tin)}


def test_criterion_6_trend_reproduction(benchmark_report):
    with criterion(6, "adaptive rescoring cuts SER by >=10% relative on the standard suite"):
        report, elapsed = benchmark_report
        base = report.pooled(BASELINE_LABEL).ser
        assert 0.20 <= base <= 0.40, f"baseline SER {base:.3f} outside the tuned band"
        rel = report.improvement_rel("adaptive")
        assert rel >= 0.10, f"adaptive relative improvement {rel:.3f} < 10%"
        n_seqs = len(report.per_sequence(BASELINE_LABEL))
        assert n_seqs >= 50
        assert elapsed < 300.0, f"suite took {elapsed:.0f}s"


def test_criterion_7_ablation_sweep_shape(benchmark_report, suite):
    with criterion(7, "full lambda sweep emitted, all rows <= baseline, byte-stable reruns"):
        report, _ = benchmark_report
        labels = list(report.labels)
        assert labels == [
            BASELINE_LABEL,
            "lambda=0",
            "lambda=0.25",
            "lambda=0.5",
            "lambda=0.75",
            "lambda=1",
            "adaptive",
        ]
        base = report.pooled(BASELINE_LABEL).ser
        for label in report.labels[1:]:
            assert report.pooled(label).ser <= base, f"{label} worsened SER"
        rerun = run_benchmark(suite)
        assert rerun.to_tsv() == report.to_tsv()
        assert rerun.to_table() == report.to_table()


def test_standard_suite_report_is_pinned(benchmark_report):
    report, _ = benchmark_report
    digest = hashlib.sha256(report.to_tsv().encode()).hexdigest()
    assert digest == "fac9bed87acb0318b74dd8a51468c8cbb44081e5d1d192365dc57eb466dd73f6"


def test_deletion_insertion_suite_report_is_pinned(suite):
    """The only pinned output on lattices whose states at one node differ in
    depth.  It gates nothing else: its lambda=1 row is worse than its
    baseline, which is a finding about the model, not a failure."""
    small = replace(suite, talas=("tintal", "ektal"), test_per_tala=4, p_del=0.1, p_ins=0.1)
    digest = hashlib.sha256(run_benchmark(small).to_tsv().encode()).hexdigest()
    assert digest == "0ca58a6f536227de3cf4baa48aa58f639aec01ca695a0839552703cc78b5c161"


def test_criterion_8_ser_matches_independent_dp():
    with criterion(8, "S/D/I totals equal an independent Levenshtein DP on 1000 pairs"):
        rng = random.Random(99)
        for _ in range(1000):
            ref = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 51))]
            hyp = [rng.randrange(1, 6) for _ in range(rng.randrange(0, 51))]
            stats = ser(ref, hyp)
            assert stats.total_errors == levenshtein_distance(ref, hyp)
            assert stats.n_ref == len(ref)
