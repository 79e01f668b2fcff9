from __future__ import annotations

import functools
import random
import re
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from talarescore.core import SENTINEL_ID, StrokeSequence, StrokeVocabulary
from talarescore.static_prior import TalaIndependentPrior, train_static_prior

from .helpers import dist_after
from .oracles import ngram_prob, tala_posterior, ti_prior_dist

AB = StrokeVocabulary.of(["A", "B"])
A, B = 1, 2


def train(corpus, n=2, w_tau=4, laplace_k=1.0):
    return train_static_prior(corpus, AB.num_playable, n=n, laplace_k=laplace_k, w_tau=w_tau)


def windows_only(window_counts, tala_priors, w_tau=4):
    """A unigram prior whose mixture shows its tala posterior: tala ``t1``
    has counted stroke A once and every other tala stroke B once, so with
    ``laplace_k`` 1 the mixture's A cell is (1 + P(t1 | window)) / 3."""
    return TalaIndependentPrior(
        n=1, laplace_k=1.0, w_tau=w_tau, num_playable=AB.num_playable,
        counts={t: {(): {A if t == "t1" else B: 1}} for t in tala_priors},
        window_counts=window_counts, tala_priors=tala_priors,
    )


def t1_posterior(prior, history):
    """P(t1 | window) after ``history``, read off a :func:`windows_only` mixture."""
    return 3 * dist_after(prior, history)[A - 1] - 1


def context(n, history):
    """The last ``n - 1`` strokes of ``history``, sentinel-padded on the left."""
    return ((SENTINEL_ID,) * (n - 1) + history)[len(history) :]


def test_bigram_counts_by_hand():
    corpus = [StrokeSequence((A, B, A, B), tala_label="t1")]
    prior = train(corpus, n=2)
    assert prior.counts["t1"][(A,)][B] == 2
    assert prior.counts["t1"][(B,)][A] == 1
    assert prior.counts["t1"][(SENTINEL_ID,)][A] == 1
    # Laplace k=1: P(B|A) = (2+1)/(2+2) = 0.75, the one tala's whole mixture
    assert dist_after(prior, (A,)) == (0.25, 0.75)


def test_unigram_order_ignores_context():
    corpus = [StrokeSequence((A, A, A, B), tala_label="t1")]
    prior = train(corpus, n=1)
    # counts: A=3, B=1, k=1 -> (4/6, 2/6) after any history
    for history in ((), (A,), (A, B, B)):
        assert dist_after(prior, history) == (4 / 6, 2 / 6)
        assert functools.reduce(prior.advance, history, prior.start()).key[2] == ()


def test_unseen_context_is_uniform():
    corpus = [StrokeSequence((A, B), tala_label="t1")]
    prior = train(corpus, n=3)
    assert dist_after(prior, (A, B, B)) == (0.5, 0.5)


def test_training_requires_labels_and_content():
    with pytest.raises(ValueError, match="label"):
        train([StrokeSequence((A,))])
    with pytest.raises(ValueError, match="empty"):
        train([])


def test_context_padding_with_sentinel():
    corpus = [StrokeSequence((A, B), tala_label="t1")]
    prior = train(corpus, n=3)
    for history, ctx in [((), (SENTINEL_ID, SENTINEL_ID)), ((A,), (SENTINEL_ID, A)), ((B, A, B), (A, B))]:
        assert functools.reduce(prior.advance, history, prior.start()).key[2] == ctx
    assert (SENTINEL_ID, SENTINEL_ID) in prior.counts["t1"]


def test_posterior_hand_example():
    prior = windows_only({"t1": {(A,): 3}, "t2": {}}, {"t1": 0.5, "t2": 0.5})
    # (3+1)*0.5 vs (0+1)*0.5 -> 0.8 / 0.2
    assert t1_posterior(prior, (A,)) == pytest.approx(0.8, abs=1e-12)
    assert dist_after(prior, (A,)) == pytest.approx((0.6, 0.4), abs=1e-12)


def test_posterior_unseen_window_equals_prior():
    prior = windows_only({"t1": {}, "t2": {}}, {"t1": 0.7, "t2": 0.3})
    assert t1_posterior(prior, (B, B)) == pytest.approx(0.7, abs=1e-12)
    assert t1_posterior(prior, ()) == pytest.approx(0.7, abs=1e-12)


def test_posterior_single_tala_is_one():
    # The one tala's n-gram row is the whole mixture, bit for bit.
    prior = windows_only({"t1": {}}, {"t1": 1.0})
    assert dist_after(prior, (A,)) == dist_after(prior, ()) == (2 / 3, 1 / 3)


def test_posterior_monotone_in_count():
    priors = {"t1": 0.5, "t2": 0.5}
    last = -1.0
    for c in range(0, 8):
        prior = windows_only({"t1": {(A,): c}, "t2": {(A,): 2}}, priors)
        p1 = t1_posterior(prior, (A,))
        assert p1 > last
        last = p1


def test_window_counts_from_training():
    corpus = [StrokeSequence((A, B, A), tala_label="t1")]
    prior = train(corpus, w_tau=2)
    assert prior.window_counts["t1"][(A,)] == 2
    assert prior.window_counts["t1"][(B,)] == 1
    assert prior.window_counts["t1"][(A, B)] == 1
    assert prior.window_counts["t1"][(B, A)] == 1
    assert () not in prior.window_counts["t1"]
    assert prior.tala_priors == {"t1": 1.0}


def test_tala_prior_is_stroke_share():
    corpus = [
        StrokeSequence((A,) * 6, tala_label="t1"),
        StrokeSequence((B,) * 2, tala_label="t2"),
        StrokeSequence((B,) * 2, tala_label="t2"),
    ]
    prior = train(corpus, w_tau=2)
    assert prior.tala_priors["t1"] == pytest.approx(0.6, abs=1e-12)
    assert prior.tala_priors["t2"] == pytest.approx(0.4, abs=1e-12)


def test_ti_prior_single_tala_degenerates_to_ngram():
    corpus = [StrokeSequence((A, B, A, B, A), tala_label="t1")]
    prior = train(corpus, n=2, w_tau=3)
    history = (A, B, A)
    mix = dist_after(prior, history)
    ngram = tuple(ngram_prob(prior.counts, 2, 1.0, "t1", (A,), q) for q in (A, B))
    assert mix == ngram


def test_ti_prior_two_tala_hand_mixture():
    corpus = [
        StrokeSequence((A, B, A, B), tala_label="t1"),
        StrokeSequence((B, B, B, B), tala_label="t2"),
    ]
    prior = train(corpus, n=2, w_tau=2)
    # Window (A, B): (2+1)*0.5 vs (0+1)*0.5 -> 0.75 / 0.25.  After B, t1's
    # row is (2/3, 1/3) and t2's (1/5, 4/5).
    assert dist_after(prior, (A, B)) == pytest.approx((0.55, 0.45), abs=1e-12)


def test_ti_prior_mixture_bounds_and_normalization():
    rng = random.Random(0)
    corpus = [
        StrokeSequence(tuple(rng.choice((A, B)) for _ in range(30)), tala_label="t1"),
        StrokeSequence(tuple(rng.choice((A, B)) for _ in range(30)), tala_label="t2"),
    ]
    prior = train(corpus, n=3, w_tau=4)
    for _ in range(200):
        history = tuple(rng.choice((A, B)) for _ in range(rng.randrange(0, 10)))
        mix = np.asarray(dist_after(prior, history))
        assert mix.sum() == pytest.approx(1.0, abs=1e-9)
        assert (mix > 0).all()
        ctx = context(3, history)
        per_tala = np.array([[ngram_prob(prior.counts, 2, 1.0, t, ctx, q) for q in (A, B)] for t in prior.talas])
        assert (mix >= per_tala.min(axis=0) - 1e-12).all()
        assert (mix <= per_tala.max(axis=0) + 1e-12).all()


def test_ti_prior_rejects_mismatched_tala_sets():
    # The n-gram counts, window counts and tala priors must name the same
    # talas, so a mismatch fails at construction, not at the first decode.
    t1 = train([StrokeSequence((A, B), tala_label="t1")])
    t2 = train([StrokeSequence((A, B), tala_label="t2")])
    tables = {"counts": t1.counts, "window_counts": t1.window_counts, "tala_priors": t1.tala_priors}
    TalaIndependentPrior(n=2, laplace_k=1.0, w_tau=4, num_playable=2, **tables)
    for name in tables:
        with pytest.raises(ValueError, match="name different tala sets"):
            TalaIndependentPrior(
                n=2, laplace_k=1.0, w_tau=4, num_playable=2, **{**tables, name: getattr(t2, name)}
            )


def test_cached_interface_matches_module_function():
    rng = random.Random(3)
    corpus = [
        StrokeSequence(tuple(rng.choice((A, B)) for _ in range(40)), tala_label="t1"),
        StrokeSequence(tuple(rng.choice((A, B)) for _ in range(40)), tala_label="t2"),
    ]
    cached = train(corpus, n=3, w_tau=5)
    model = SimpleNamespace(prior=cached)
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
    ti = train(corpus, n=3, w_tau=10)
    model = SimpleNamespace(prior=ti)
    histories = {tuple(rng.choice((A, B)) for _ in range(12)) for _ in range(600)}
    contexts, seen = set(), set()
    for history in histories:
        assert np.allclose(dist_after(ti, history), ti_prior_dist(model, history), rtol=0, atol=1e-15)
        contexts.add(context(3, history))
        if any(history[-10:] in ti.window_counts[t] for t in ti.talas):
            seen.add(history[-10:])
    assert len(histories) > 500 and seen
    assert len(ti._cache) <= len(contexts) + len(seen)


def test_automaton_is_bounded_by_training_not_by_traffic():
    # The traffic of the memo's bound above: each node's key is a prefix of
    # a trained window or the empty one, a flag and a context, however many
    # histories reach it.
    rng = random.Random(5)
    corpus = [
        StrokeSequence(tuple(rng.choice((A, B)) for _ in range(40)), tala_label=t) for t in ("t1", "t2")
    ]
    ti = train(corpus, n=3, w_tau=10)
    histories = {tuple(rng.choice((A, B)) for _ in range(12)) for _ in range(600)}
    contexts = set()
    for history in histories:
        dist_after(ti, history)
        contexts.update(context(3, history[:i]) for i in range(len(history) + 1))
    prefixes = {w[:k] for t in ti.talas for w in ti.window_counts[t] for k in range(1, len(w) + 1)}
    assert len(histories) > 500
    assert {q for q, _, _ in ti._nodes} <= prefixes | {()}
    assert {ctx for _, _, ctx in ti._nodes} <= contexts
    assert len(ti._nodes) <= 2 * (len(prefixes) + 1) * len(contexts)


def test_threads_that_race_on_one_transition_get_one_node():
    # Both threads miss the node before either stores it; the store that
    # comes second must keep the first one's node.
    ti = train([StrokeSequence((A, B, A), tala_label="t1")])
    both_missed = threading.Barrier(2)

    class RacingNodes(dict):
        def get(self, key, default=None):
            node = super().get(key, default)
            if node is None:
                both_missed.wait(timeout=60)
            return node

    ti._nodes = RacingNodes(ti._nodes)
    got = []
    threads = [threading.Thread(target=lambda: got.append(ti.advance(ti.start(), A))) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 2 and got[0] is got[1] is ti._nodes[got[0].key] is ti.start().next[A]


@pytest.mark.parametrize("first", ["empty", "unseen"])
def test_empty_history_keeps_the_normalized_prior(first):
    # With laplace_k != 1 the normalized prior and the zero-count posterior
    # can differ in the last bits, so an empty window must not share the memo
    # entry of an unseen window with the same (here empty) context: each
    # mixture equals the one a prior with a fresh memo gives, bit for bit.
    corpus = [StrokeSequence((A,), tala_label="t1"), StrokeSequence((B,) * 7, tala_label="t2")]
    ti = train(corpus, n=1, w_tau=4, laplace_k=0.3)
    histories = {"empty": (), "unseen": (B, A, A, A)}
    order = [first, *(h for h in histories if h != first)]
    results = {}
    for name in order:
        history = histories[name]
        results[name] = dist_after(ti, history)
        assert results[name] == dist_after(train(corpus, n=1, w_tau=4, laplace_k=0.3), history)
        post = tala_posterior(ti.window_counts, ti.tala_priors, 0.3, history)
        expected = [sum(post[t] * ngram_prob(ti.counts, 2, 0.3, t, (), q) for t in post) for q in (A, B)]
        assert results[name] == pytest.approx(expected, rel=1e-12)
    assert results["empty"] != results["unseen"]


def test_memo_hands_out_its_own_tuple():
    corpus = [StrokeSequence((A, B, A, B, B), tala_label="t1"), StrokeSequence((B, A, A), tala_label="t2")]
    ti = train(corpus, n=2, w_tau=3)
    # The memo hands out its own tuple, which no caller can change.
    mix = dist_after(ti, (A, B, A))
    assert isinstance(mix, tuple)
    assert list(ti._cache.values()) == [mix]


def test_ti_prior_rejects_an_empty_tala_set():
    with pytest.raises(ValueError, match=r"^empty tala set$"):
        windows_only({}, {})


@pytest.mark.parametrize("nxt", [0, AB.num_playable + 1])
def test_ti_prior_rejects_a_next_stroke_outside_the_vocabulary(nxt):
    # Id 0 would add its count to the last stroke's cell, and V + 1 has no cell.
    message = "^" + re.escape(f"tala 't': n-gram (0,) -> {nxt}: next stroke id not in 1..2") + "$"
    with pytest.raises(ValueError, match=message):
        TalaIndependentPrior(
            n=2, laplace_k=1.0, w_tau=2, num_playable=AB.num_playable,
            counts={"t": {(SENTINEL_ID,): {nxt: 6}}}, window_counts={"t": {}}, tala_priors={"t": 1.0},
        )


@pytest.mark.parametrize("tala", ["jhap tal", "jhap\ttal", " tintal", ""])
def test_ti_prior_rejects_a_tala_name_the_model_file_cannot_hold(tala):
    # Model lines are split on whitespace, so such a name would not load back.
    message = "^" + re.escape(f"tala name {tala!r} is empty or holds whitespace") + "$"
    with pytest.raises(ValueError, match=message):
        windows_only({tala: {}}, {tala: 1.0})
    if tala:  # training refuses an empty label earlier
        with pytest.raises(ValueError, match=message):
            train([StrokeSequence((A, B), tala_label=tala)])


def test_prior_compared_with_another_type_is_unequal(small_model):
    prior = small_model.prior
    assert prior.__eq__(small_model) is NotImplemented
    assert prior != small_model
    assert not prior == (prior.n, prior.w_tau)
