from __future__ import annotations

import numpy as np
import pytest

from talarescore.core import SENTINEL_ID, StrokeSequence, StrokeVocabulary
from talarescore.dynamic_model import _observe, _predict, init_alpha

AB = StrokeVocabulary.of(["A", "B"])
A, B = 1, 2


def state(alpha_rows):
    return np.array(alpha_rows, dtype=float)


def test_init_alpha_hand_counts():
    corpus = [StrokeSequence((A, B, A, B))]
    alpha = init_alpha(corpus, AB, eps_dir=1.0)
    assert alpha.shape == (3, 2)
    assert alpha[A, B - 1] == 3.0  # 2 transitions + eps
    assert alpha[B, A - 1] == 2.0  # 1 transition + eps
    assert alpha[A, A - 1] == 1.0
    assert alpha[B, B - 1] == 1.0
    assert np.all(alpha[SENTINEL_ID] == 1.0)


def test_init_alpha_empty_corpus_warns():
    with pytest.warns(UserWarning, match="empty corpus"):
        alpha = init_alpha([], AB, eps_dir=0.5)
    assert np.all(alpha[1:] == 0.5)
    assert np.all(alpha[SENTINEL_ID] == 1.0)


def test_init_alpha_sentinel_row_uniform_regardless_of_corpus():
    corpus = [StrokeSequence((A, A, A, A))]
    alpha = init_alpha(corpus, AB, eps_dir=2.5)
    assert np.all(alpha[SENTINEL_ID] == 1.0)


def test_update_fixed_point_on_observed_cell():
    st = state([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    nxt = _observe(st, 0.03, A, B)
    assert nxt[A, B - 1] == 1.0  # (1-rho)*1 + rho, exactly


def test_update_decays_unobserved_cells():
    st = state([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    nxt = _observe(st, 0.03, A, B)
    assert nxt[B, A - 1] == 1.0 * (1.0 - 0.03)
    assert nxt[A, A - 1] == 1.0 * (1.0 - 0.03)


def test_update_is_pure():
    st = state([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    before = st.copy()
    _observe(st, 0.03, A, A)
    assert np.array_equal(st, before)


def test_matrix_total_recurrence():
    st = state([[2.0, 0.5], [1.5, 3.0], [0.25, 0.75]])
    total = st.sum()
    for _ in range(50):
        st = _observe(st, 0.1, A, B)
        total = (1.0 - 0.1) * total + 0.1
        assert st.sum() == pytest.approx(total, rel=1e-12)
    assert abs(st.sum() - 1.0) < (0.9**50) * 10


def test_predict_uniform_row():
    st = state([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
    assert np.allclose(_predict(st, A), [0.5, 0.5])


def test_predict_hand_normalization():
    st = state([[1.0, 1.0], [3.0, 1.0], [1.0, 1.0]])
    p = _predict(st, A)
    assert p[A - 1] == pytest.approx(0.75, abs=1e-15)
    assert p[B - 1] == pytest.approx(0.25, abs=1e-15)


def test_update_strictly_raises_observed_probability():
    rng = np.random.default_rng(2)
    for _ in range(50):
        alpha = rng.uniform(0.1, 5.0, size=(3, 2))
        before = _predict(alpha, A)[B - 1]
        after = _predict(_observe(alpha, 0.07, A, B), A)[B - 1]
        assert after > before


def test_repeated_updates_drive_probability_to_one_monotonically():
    st = state([[1.0, 1.0], [5.0, 1.0], [1.0, 1.0]])
    last = _predict(st, A)[B - 1]
    for _ in range(300):
        st = _observe(st, 0.05, A, B)
        cur = _predict(st, A)[B - 1]
        assert cur > last
        last = cur
    assert last > 0.99


def test_positivity_preserved_under_many_updates():
    rng = np.random.default_rng(5)
    st = state([[0.2, 0.8], [1.4, 0.6], [2.0, 0.1]])
    for _ in range(500):
        prev = int(rng.integers(0, 3))
        nxt = int(rng.integers(1, 3))
        st = _observe(st, 0.3, prev, nxt)
        assert (st > 0).all()

