from __future__ import annotations

import math
import random

import numpy as np
import pytest

from talarescore.fusion import (
    LOG2,
    acoustic_confidence,
    combine,
    jsd,
    lambda_k,
    parse_lambda_mode,
)

from .oracles import confidence as oracle_confidence, jsd_nats


def rand_dist(rng, n):
    cells = [rng.random() + 1e-6 for _ in range(n)]
    z = sum(cells)
    return np.array([c / z for c in cells])


def test_jsd_identity_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert jsd(p, p, 1e-8) == 0.0


def test_jsd_disjoint_supports_approach_log2():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert jsd(p, q, 1e-8) == pytest.approx(LOG2, abs=1e-3)


def test_jsd_analytic_value():
    # p=(1,0), q=(.5,.5): M=(.75,.25); 0.5*ln(4/3) + 0.5*(.5*ln(2/3)+.5*ln 2)
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    expected = 0.5 * math.log(1 / 0.75) + 0.5 * (
        0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    )
    assert expected == pytest.approx(0.2157, abs=1e-3)
    assert jsd(p, q, 1e-8) == pytest.approx(expected, abs=1e-3)


def test_jsd_exact_symmetry_and_bounds_randomized():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(2, 8)
        p = rand_dist(rng, n)
        q = rand_dist(rng, n)
        d_pq = jsd(p, q, 1e-8)
        d_qp = jsd(q, p, 1e-8)
        assert d_pq == d_qp
        assert 0.0 <= d_pq <= LOG2 + 1e-12


def test_jsd_matches_independent_oracle():
    rng = random.Random(4)
    for _ in range(100):
        p = rand_dist(rng, 5)
        q = rand_dist(rng, 5)
        assert jsd(p, q, 1e-8) == pytest.approx(jsd_nats(list(p), list(q), 1e-8), abs=1e-12)


def test_jsd_rejects_mismatch_and_bad_eps():
    with pytest.raises(ValueError, match="support"):
        jsd(np.array([1.0]), np.array([0.5, 0.5]), 1e-8)
    with pytest.raises(ValueError, match="eps"):
        jsd(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.0)


def test_confidence_single_arc_is_one():
    assert acoustic_confidence([-3.7]) == 1.0


def test_confidence_equal_scores_is_zero():
    assert acoustic_confidence([0.5, 0.5]) == 0.0
    assert acoustic_confidence([-2.0, -2.0, -2.0, -2.0]) == 0.0


def test_confidence_hand_example():
    # scores (0, -ln 3) -> softmax (0.75, 0.25)
    c = acoustic_confidence([0.0, -math.log(3.0)])
    h = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert c == pytest.approx(1.0 - h / LOG2, abs=1e-12)
    assert c == pytest.approx(0.1887, abs=1e-3)


def test_confidence_extreme_scores_do_not_overflow():
    assert 0.0 <= acoustic_confidence([700.0, -700.0]) <= 1.0
    assert 0.0 <= acoustic_confidence([-700.0, -700.0, 650.0]) <= 1.0


def test_confidence_bounds_randomized_and_matches_oracle():
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randrange(1, 7)
        scores = [rng.uniform(-5, 5) for _ in range(n)]
        c = acoustic_confidence(scores)
        assert 0.0 <= c <= 1.0
        if n > 1 and len(set(scores)) > 1:
            assert c == pytest.approx(oracle_confidence(scores), abs=1e-12)


def test_confidence_requires_an_arc():
    with pytest.raises(ValueError):
        acoustic_confidence([])


def test_lambda_boundaries_and_product():
    assert lambda_k(1.0, LOG2) == 1.0
    assert lambda_k(0.0, 0.123) == 0.0
    assert lambda_k(0.5, 0.5 * LOG2) == 0.25


def test_lambda_stays_in_unit_interval():
    rng = random.Random(5)
    for _ in range(1000):
        c = rng.random()
        d = rng.uniform(0, LOG2)
        assert 0.0 <= lambda_k(c, d) <= 1.0
    assert lambda_k(1.0, LOG2 + 1e-15) == 1.0


def test_combine_boundaries_exact():
    p = np.array([0.8, 0.2])
    q = np.array([0.2, 0.8])
    assert np.array_equal(combine(p, q, 0.0), p)
    assert np.array_equal(combine(p, q, 1.0), q)
    assert np.allclose(combine(p, q, 0.5), [0.5, 0.5], atol=1e-15)


def test_combine_idempotent_on_agreement():
    p = np.array([0.3, 0.45, 0.25])
    for lam in (0.0, 0.25, 0.7, 1.0):
        assert np.allclose(combine(p, p, lam), p, atol=1e-15)


def test_combine_cellwise_bounds():
    rng = random.Random(9)
    for _ in range(300):
        p = rand_dist(rng, 4)
        q = rand_dist(rng, 4)
        lam = rng.random()
        mix = combine(p, q, lam)
        assert (mix >= np.minimum(p, q) - 1e-15).all()
        assert (mix <= np.maximum(p, q) + 1e-15).all()
        assert mix.sum() == pytest.approx(1.0, abs=1e-9)


def test_combine_validates_inputs():
    p = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="support"):
        combine(p, np.array([1.0, 0.0, 0.0]), 0.5)
    with pytest.raises(ValueError, match="lambda"):
        combine(p, p, 1.5)


def test_lambda_mode_parsing():
    assert parse_lambda_mode("adaptive") is None
    assert parse_lambda_mode("fixed:0.25") == 0.25
    assert parse_lambda_mode("0.75") == 0.75
    with pytest.raises(ValueError):
        parse_lambda_mode("fixed:1.5")
    with pytest.raises(ValueError):
        parse_lambda_mode("sometimes")

