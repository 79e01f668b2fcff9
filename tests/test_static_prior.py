from __future__ import annotations

import functools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from talarescore.core import SENTINEL_ID, StrokeSequence, StrokeVocabulary
from talarescore.static_prior import (
    TalaIndependentPrior,
    TalaPosteriorTable,
    train_prior,
    train_tala_table,
)

from .oracles import ti_prior_dist

AB = StrokeVocabulary.of(["A", "B"])
A, B = 1, 2


def dist_after(ti, history):
    """The prior's next-stroke mixture after ``history``, stepped as ``rescore`` steps it."""
    return ti.dist(functools.reduce(ti.advance, history, ti.start()))


def test_bigram_counts_by_hand():
    corpus = [StrokeSequence((A, B, A, B), tala_label="t1")]
    prior = train_prior(corpus, AB, n=2)
    assert prior.counts["t1"][(A,)][B] == 2
    assert prior.counts["t1"][(B,)][A] == 1
    assert prior.counts["t1"][(SENTINEL_ID,)][A] == 1
    # Laplace k=1: P(B|A) = (2+1)/(2+2) = 0.75
    dist = prior.distribution("t1", (A,))
    assert dist[B - 1] == pytest.approx(0.75, abs=1e-12)
    assert dist[A - 1] == pytest.approx(0.25, abs=1e-12)


def test_unigram_order_ignores_context():
    corpus = [StrokeSequence((A, A, A, B), tala_label="t1")]
    prior = train_prior(corpus, AB, n=1)
    d1 = prior.distribution("t1", ())
    # counts: A=3, B=1, k=1 -> (4/6, 2/6)
    assert d1[A - 1] == pytest.approx(4 / 6, abs=1e-12)
    assert d1[B - 1] == pytest.approx(2 / 6, abs=1e-12)
    assert prior.context_of((A, B, B)) == ()


def test_unseen_context_is_uniform():
    corpus = [StrokeSequence((A, B), tala_label="t1")]
    prior = train_prior(corpus, AB, n=3)
    dist = prior.distribution("t1", (B, B))
    assert np.allclose(dist, [0.5, 0.5])


def test_training_requires_labels_and_content():
    with pytest.raises(ValueError, match="label"):
        train_prior([StrokeSequence((A,))], AB, n=2)
    with pytest.raises(ValueError, match="empty"):
        train_prior([], AB, n=2)


def test_context_padding_with_sentinel():
    corpus = [StrokeSequence((A, B), tala_label="t1")]
    prior = train_prior(corpus, AB, n=3)
    assert prior.context_of(()) == (SENTINEL_ID, SENTINEL_ID)
    assert prior.context_of((A,)) == (SENTINEL_ID, A)
    assert prior.context_of((B, A, B)) == (A, B)
    assert (SENTINEL_ID, SENTINEL_ID) in prior.counts["t1"]


def test_posterior_hand_example():
    table = TalaPosteriorTable(
        w_tau=4,
        laplace_k=1.0,
        counts={"t1": {(A,): 3}, "t2": {}},
        priors={"t1": 0.5, "t2": 0.5},
    )
    post = table.posterior((A,))
    # (3+1)*0.5 vs (0+1)*0.5 -> 0.8 / 0.2
    assert post[table.talas.index("t1")] == pytest.approx(0.8, abs=1e-12)
    assert post[table.talas.index("t2")] == pytest.approx(0.2, abs=1e-12)


def test_posterior_unseen_window_equals_prior():
    table = TalaPosteriorTable(
        w_tau=4,
        laplace_k=1.0,
        counts={"t1": {}, "t2": {}},
        priors={"t1": 0.7, "t2": 0.3},
    )
    post = table.posterior((B, B))
    assert post[table.talas.index("t1")] == pytest.approx(0.7, abs=1e-12)
    post_empty = table.posterior(())
    assert post_empty[table.talas.index("t1")] == pytest.approx(0.7, abs=1e-12)


def test_posterior_single_tala_is_one():
    table = TalaPosteriorTable(w_tau=4, laplace_k=1.0, counts={"t1": {}}, priors={"t1": 1.0})
    assert table.posterior((A,))[0] == pytest.approx(1.0, abs=1e-15)


def test_posterior_rejects_overlong_window():
    table = TalaPosteriorTable(w_tau=2, laplace_k=1.0, counts={"t1": {}}, priors={"t1": 1.0})
    with pytest.raises(ValueError, match="w_tau"):
        table.posterior((A, B, A))


def test_posterior_monotone_in_count():
    priors = {"t1": 0.5, "t2": 0.5}
    last = -1.0
    for c in range(0, 8):
        table = TalaPosteriorTable(
            w_tau=4, laplace_k=1.0, counts={"t1": {(A,): c}, "t2": {(A,): 2}}, priors=priors
        )
        p1 = table.posterior((A,))[table.talas.index("t1")]
        assert p1 > last
        last = p1


def test_window_counts_from_training():
    corpus = [StrokeSequence((A, B, A), tala_label="t1")]
    table = train_tala_table(corpus, w_tau=2)
    assert table.counts["t1"][(A,)] == 2
    assert table.counts["t1"][(B,)] == 1
    assert table.counts["t1"][(A, B)] == 1
    assert table.counts["t1"][(B, A)] == 1
    assert () not in table.counts["t1"]
    assert table.priors == {"t1": 1.0}


def test_tala_prior_is_stroke_share():
    corpus = [
        StrokeSequence((A,) * 6, tala_label="t1"),
        StrokeSequence((B,) * 2, tala_label="t2"),
        StrokeSequence((B,) * 2, tala_label="t2"),
    ]
    table = train_tala_table(corpus, w_tau=2)
    assert table.priors["t1"] == pytest.approx(0.6, abs=1e-12)
    assert table.priors["t2"] == pytest.approx(0.4, abs=1e-12)


def test_ti_prior_single_tala_degenerates_to_ngram():
    corpus = [StrokeSequence((A, B, A, B, A), tala_label="t1")]
    prior = train_prior(corpus, AB, n=2)
    table = train_tala_table(corpus, w_tau=3)
    history = (A, B, A)
    mix = dist_after(TalaIndependentPrior(prior, table), history)
    ngram = prior.distribution("t1", prior.context_of(history))
    assert np.array_equal(mix, ngram)


def test_ti_prior_two_tala_hand_mixture():
    corpus = [
        StrokeSequence((A, B, A, B), tala_label="t1"),
        StrokeSequence((B, B, B, B), tala_label="t2"),
    ]
    prior = train_prior(corpus, AB, n=2)
    table = train_tala_table(corpus, w_tau=2)
    history = (A, B)
    post = table.posterior(history)
    expected = np.zeros(2)
    for w, tala in zip(post, table.talas):
        expected += w * prior.distribution(tala, (B,))
    got = np.asarray(dist_after(TalaIndependentPrior(prior, table), history))
    assert np.all(np.abs(got - expected) < 1e-12)


def test_ti_prior_mixture_bounds_and_normalization():
    rng = random.Random(0)
    corpus = [
        StrokeSequence(tuple(rng.choice((A, B)) for _ in range(30)), tala_label="t1"),
        StrokeSequence(tuple(rng.choice((A, B)) for _ in range(30)), tala_label="t2"),
    ]
    prior = train_prior(corpus, AB, n=3)
    table = train_tala_table(corpus, w_tau=4)
    ti = TalaIndependentPrior(prior, table)
    for _ in range(200):
        history = tuple(rng.choice((A, B)) for _ in range(rng.randrange(0, 10)))
        mix = np.asarray(dist_after(ti, history))
        assert mix.sum() == pytest.approx(1.0, abs=1e-9)
        assert (mix > 0).all()
        ctx = prior.context_of(history)
        per_tala = np.array([prior.distribution(t, ctx) for t in table.talas])
        assert (mix >= per_tala.min(axis=0) - 1e-12).all()
        assert (mix <= per_tala.max(axis=0) + 1e-12).all()


def test_ti_prior_rejects_mismatched_tala_sets():
    c1 = [StrokeSequence((A, B), tala_label="t1")]
    c2 = [StrokeSequence((A, B), tala_label="t2")]
    prior = train_prior(c1, AB, n=2)
    table = train_tala_table(c2, w_tau=2)
    with pytest.raises(ValueError, match="tala sets"):
        TalaIndependentPrior(prior, table)


def test_cached_interface_matches_module_function():
    rng = random.Random(3)
    corpus = [
        StrokeSequence(tuple(rng.choice((A, B)) for _ in range(40)), tala_label="t1"),
        StrokeSequence(tuple(rng.choice((A, B)) for _ in range(40)), tala_label="t2"),
    ]
    prior = train_prior(corpus, AB, n=3)
    table = train_tala_table(corpus, w_tau=5)
    cached = TalaIndependentPrior(prior, table)
    model = SimpleNamespace(prior=prior, tala_table=table)
    for _ in range(100):
        history = tuple(rng.choice((A, B)) for _ in range(rng.randrange(0, 12)))
        assert np.allclose(dist_after(cached, history), ti_prior_dist(model, history), rtol=0, atol=1e-15)


def test_memo_is_bounded_by_training_not_by_traffic():
    # Windows unseen in training all have the prior as their tala posterior,
    # so they share one memo entry per n-gram context.
    rng = random.Random(5)
    corpus = [
        StrokeSequence(tuple(rng.choice((A, B)) for _ in range(40)), tala_label=t) for t in ("t1", "t2")
    ]
    prior = train_prior(corpus, AB, n=3)
    table = train_tala_table(corpus, w_tau=10)
    ti = TalaIndependentPrior(prior, table)
    model = SimpleNamespace(prior=prior, tala_table=table)
    histories = {tuple(rng.choice((A, B)) for _ in range(12)) for _ in range(600)}
    contexts, seen = set(), set()
    for history in histories:
        assert np.allclose(dist_after(ti, history), ti_prior_dist(model, history), rtol=0, atol=1e-15)
        contexts.add(prior.context_of(history))
        if any(history[-10:] in table.counts[t] for t in table.talas):
            seen.add(history[-10:])
    assert len(histories) > 500 and seen
    assert len(ti._cache) <= len(contexts) + len(seen)


@pytest.mark.parametrize("first", ["empty", "unseen"])
def test_empty_history_keeps_the_normalized_prior(first):
    # With laplace_k != 1 the normalized prior and the zero-count posterior
    # can differ in the last bits, so an empty window must not share the memo
    # entry of an unseen window with the same (here empty) context.
    corpus = [StrokeSequence((A,), tala_label="t1"), StrokeSequence((B,) * 7, tala_label="t2")]
    prior = train_prior(corpus, AB, n=1, laplace_k=0.3)
    table = train_tala_table(corpus, w_tau=4, laplace_k=0.3)
    ti = TalaIndependentPrior(prior, table)
    histories = {"empty": (), "unseen": (B, A, A, A)}
    order = [first, *(h for h in histories if h != first)]
    results = {}
    for name in order:
        history = histories[name]
        expected = np.zeros(2)
        for weight, tala in zip(table.posterior(history), table.talas):
            expected += weight * prior.distribution(tala, ())
        results[name] = dist_after(ti, history)
        assert np.array_equal(results[name], expected)
    assert not np.array_equal(results["empty"], results["unseen"])


def test_memo_arrays_are_read_only():
    corpus = [StrokeSequence((A, B, A, B, B), tala_label="t1"), StrokeSequence((B, A, A), tala_label="t2")]
    ti = TalaIndependentPrior(train_prior(corpus, AB, n=2), train_tala_table(corpus, w_tau=3))
    # The memo hands out its own tuple, which no caller can change.
    mix = dist_after(ti, (A, B, A))
    assert isinstance(mix, tuple)
    assert list(ti._cache.values()) == [mix]
