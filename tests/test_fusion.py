from __future__ import annotations

import math
import random

import numpy as np
import pytest

from talarescore.dynamic_model import _predict
from talarescore.fusion import (
    LOG2,
    _EPS_JSD,
    _combine,
    _jsd,
    _jsd_half,
    acoustic_confidence,
    lambda_k,
    parse_lambda_mode,
)

from .helpers import two_part_jsd
from .oracles import confidence as oracle_confidence, jsd_nats


def rand_dist(rng, n):
    cells = [rng.random() + 1e-6 for _ in range(n)]
    z = sum(cells)
    return np.array([c / z for c in cells])


def test_jsd_identity_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert two_part_jsd(p, p) == 0.0


def test_jsd_disjoint_supports_approach_log2():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert two_part_jsd(p, q) == pytest.approx(LOG2, abs=1e-3)


def test_jsd_analytic_value():
    # p=(1,0), q=(.5,.5): M=(.75,.25); 0.5*ln(4/3) + 0.5*(.5*ln(2/3)+.5*ln 2)
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    expected = 0.5 * math.log(1 / 0.75) + 0.5 * (
        0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    )
    assert expected == pytest.approx(0.2157, abs=1e-3)
    assert two_part_jsd(p, q) == pytest.approx(expected, abs=1e-3)


def test_jsd_exact_symmetry_and_bounds_randomized():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(2, 8)
        p = rand_dist(rng, n)
        q = rand_dist(rng, n)
        d_pq = two_part_jsd(p, q)
        d_qp = two_part_jsd(q, p)
        assert d_pq == d_qp
        assert 0.0 <= d_pq <= LOG2 + 1e-12


def test_jsd_matches_independent_oracle():
    rng = random.Random(4)
    for _ in range(100):
        p = rand_dist(rng, 5)
        q = rand_dist(rng, 5)
        assert two_part_jsd(p, q) == pytest.approx(jsd_nats(list(p), list(q), 1e-8), abs=1e-12)


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


def math_confidence(scores):
    """The confidence with a ``math`` exp and log per arc and sums left to right from 0.0."""
    n = len(scores)
    if n == 1:
        return 1.0
    top = max(scores)
    if all(s == top for s in scores):
        return 0.0
    exps = [math.exp(s - top) for s in scores]
    z = 0.0
    for e in exps:
        z += e
    plogp = 0.0
    for e in exps:
        p = e / z
        if p > 0.0:
            plogp += p * math.log(p)
    return min(max(1.0 - -plogp / math.log(n), 0.0), 1.0)


def test_confidence_bounds_randomized_and_matches_oracle():
    rng = random.Random(23)
    for _ in range(2000):
        n = rng.randrange(1, 13)
        scores = [rng.uniform(-5, 5) for _ in range(n)]
        if n > 1 and rng.random() < 0.1:
            scores[rng.randrange(n)] = scores[0]  # a tie
        c = acoustic_confidence(scores)
        assert 0.0 <= c <= 1.0
        assert c == math_confidence(scores)
        if n > 1 and len(set(scores)) > 1:
            assert c == pytest.approx(oracle_confidence(scores), abs=1e-12)


def test_confidence_requires_an_arc():
    with pytest.raises(ValueError):
        acoustic_confidence([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_confidence_rejects_a_non_finite_score(bad):
    for scores in ([bad], [bad, 0.0], [0.0, -1.0, bad]):
        with pytest.raises(ValueError, match="finite"):
            acoustic_confidence(scores)


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
    assert np.array_equal(_combine(p, q, 0.0), p)
    assert np.array_equal(_combine(p, q, 1.0), q)
    assert np.allclose(_combine(p, q, 0.5), [0.5, 0.5], atol=1e-15)


def test_combine_idempotent_on_agreement():
    p = np.array([0.3, 0.45, 0.25])
    for lam in (0.0, 0.25, 0.7, 1.0):
        assert np.allclose(_combine(p, p, lam), p, atol=1e-15)


def test_combine_cellwise_bounds():
    rng = random.Random(9)
    for _ in range(300):
        p = rand_dist(rng, 4)
        q = rand_dist(rng, 4)
        lam = rng.random()
        mix = np.asarray(_combine(p, q, lam))
        assert (mix >= np.minimum(p, q) - 1e-15).all()
        assert (mix <= np.maximum(p, q) + 1e-15).all()
        assert mix.sum() == pytest.approx(1.0, abs=1e-9)


def test_lambda_mode_parsing():
    assert parse_lambda_mode("adaptive") is None
    assert parse_lambda_mode("fixed:0.25") == 0.25
    with pytest.raises(ValueError, match="bad lambda mode"):
        parse_lambda_mode("0.75")
    with pytest.raises(ValueError):
        parse_lambda_mode("fixed:1.5")
    with pytest.raises(ValueError):
        parse_lambda_mode("sometimes")


# Reference formulas.  The package's float versions must reproduce their bits
# exactly, since the pinned outputs rest on them.


def numpy_predict(alpha, prev):
    row = alpha[prev]
    return row / row.sum()


def math_jsd(p, q, eps):
    # Both distributions smoothed whole, then a math.log per cell and both
    # Kullback-Leibler sums left to right from 0.0.
    scale = 1.0 + len(p) * eps
    ps = [(x + eps) / scale for x in p]
    qs = [(x + eps) / scale for x in q]
    m = [0.5 * (a + b) for a, b in zip(ps, qs)]
    kl_pm = 0.0
    kl_qm = 0.0
    for a, b, c in zip(ps, qs, m):
        kl_pm += a * (math.log(a) - math.log(c))
        kl_qm += b * (math.log(b) - math.log(c))
    return max(0.5 * kl_pm + 0.5 * kl_qm, 0.0)


def numpy_combine(p_static, p_dyn, lam):
    return (1.0 - lam) * np.asarray(p_static, dtype=float) + lam * np.asarray(p_dyn, dtype=float)


TINY = (0.0, 5e-324, 1e-300, 1e-12, 5e-9, 1e-8)


def rough_cells(rng, n):
    """Cells on widely spread scales, a fifth of them zero or near it."""
    return [
        rng.choice(TINY) if rng.random() < 0.2 else rng.random() * 10 ** rng.uniform(-6, 2)
        for _ in range(n)
    ]


def rough_dist(rng, n):
    cells = rough_cells(rng, n)
    cells[rng.randrange(n)] += 1.0  # never all zero
    z = sum(cells)
    return [c / z for c in cells]


def trial_lengths(rng, trials):
    # The decoder's 5-stroke vocabulary, then every length numpy sums
    # sequentially (below 8 cells).
    for i in range(trials):
        yield 5 if i % 2 == 0 else rng.randrange(2, 8)


def test_predict_is_bit_identical_to_numpy_formula():
    rng = random.Random(2024)
    for n in trial_lengths(rng, 10_000):
        alpha = np.array([rough_cells(rng, n) for _ in range(n + 1)])
        alpha[alpha == 0.0] = 1e-300  # Dirichlet pseudo-counts are positive
        prev = rng.randrange(n + 1)
        got = _predict(alpha, prev)
        assert type(got) is list
        assert got == numpy_predict(alpha, prev).tolist()


def test_jsd_is_bit_identical_to_math_formula():
    rng = random.Random(7)
    other = random.Random(8)
    eps = _EPS_JSD
    for i, n in enumerate(trial_lengths(rng, 10_000)):
        if i % 5 == 4:
            n = rng.randrange(8, 25)  # from 8 cells on, numpy sums pairwise; the step must not
        p = rough_dist(rng, n)
        q = p if rng.random() < 0.05 else rough_dist(rng, n)
        got = two_part_jsd(p, q)
        assert type(got) is float
        assert got == math_jsd(p, q, eps)
        # One static half serves every p it meets.
        half = _jsd_half(q)
        for p2 in (p, q, rough_dist(other, n)):
            assert _jsd(p2, half) == math_jsd(p2, q, eps)


def test_combine_is_bit_identical_to_numpy_formula():
    rng = random.Random(11)
    for n in trial_lengths(rng, 10_000):
        p = rough_dist(rng, n)
        q = rough_dist(rng, n)
        lam = rng.choice((0.0, 1.0)) if rng.random() < 0.1 else rng.random()
        got = _combine(p, q, lam)
        assert type(got) is list
        assert got == numpy_combine(p, q, lam).tolist()
