"""Per-tala n-gram stroke priors and the tala-independent marginalized prior.

The static prior is a mixture: an online posterior over the latent tala,
estimated from a recent-history window, weights per-tala Laplace-smoothed
n-gram distributions over the next stroke.  Trained tables are immutable and
may be shared across threads; :class:`TalaIndependentPrior` memoizes the
mixture on the values it depends on, so its memo is bounded by the training
data, not by decode traffic.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

import numpy as np

from .core import SENTINEL_ID, StrokeSequence, StrokeVocabulary
from .errors import VocabularyError


class NextStrokePrior(Protocol):
    """A next-stroke model stepped along a path, as ``rescore`` drives it.

    ``start()`` is the state of the empty history, ``advance(state, stroke)``
    the state after one more playable stroke id, and ``dist(state)`` the
    next-stroke distribution: one strictly positive entry per playable stroke
    (index ``stroke_id - 1``) summing to 1.  A state may be any value; it
    should hold only what ``dist`` reads, and ``advance`` must leave it
    unchanged, since sibling paths advance from the same state.  This is the seam where a learned
    sequence model could replace the count-based prior.
    """

    def start(self) -> object: ...

    def advance(self, state: object, stroke: int) -> object: ...

    def dist(self, state: object) -> Sequence[float]: ...


class NGramPrior:
    """Per-tala order-n stroke model with Laplace smoothing.

    Contexts have length exactly ``n - 1``; positions near the sequence start
    are padded with the start sentinel.
    """

    def __init__(
        self,
        n: int,
        laplace_k: float,
        num_playable: int,
        counts: dict[str, dict[tuple[int, ...], dict[int, int]]],
    ) -> None:
        if n < 1:
            raise ValueError("n-gram order must be >= 1")
        if laplace_k <= 0:
            raise ValueError("laplace_k must be positive")
        self.n = n
        self.laplace_k = laplace_k
        self.num_playable = num_playable
        self.counts = counts

    @property
    def talas(self) -> tuple[str, ...]:
        return tuple(sorted(self.counts))

    def context_of(self, history: Sequence[int]) -> tuple[int, ...]:
        """The last ``n - 1`` strokes, sentinel-padded on the left."""
        need = self.n - 1
        ctx = tuple(history[-need:]) if need else ()
        if len(ctx) < need:
            ctx = (SENTINEL_ID,) * (need - len(ctx)) + ctx
        return ctx

    def distribution(self, tala: str, context: tuple[int, ...]) -> np.ndarray:
        """Smoothed conditional over playable strokes, as a fresh array.

        Not memoized: :class:`TalaIndependentPrior` memoizes the mixture, so
        this runs only on a mixture miss.
        """
        k = self.laplace_k
        probs = np.full(self.num_playable, k, dtype=float)
        table = self.counts.get(tala)
        if table is None:
            raise ValueError(f"tala {tala!r} not in trained prior")
        for nxt, c in table.get(context, {}).items():
            probs[nxt - 1] += c
        probs /= probs.sum()
        return probs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NGramPrior):
            return NotImplemented
        return (
            self.n == other.n
            and self.laplace_k == other.laplace_k
            and self.num_playable == other.num_playable
            and self.counts == other.counts
        )


def train_prior(
    corpus: Iterable[StrokeSequence],
    vocab: StrokeVocabulary,
    n: int,
    laplace_k: float = 1.0,
) -> NGramPrior:
    """Count n-grams per tala over a labeled corpus."""
    counts: dict[str, dict[tuple[int, ...], dict[int, int]]] = {}
    empty = True
    for seq in corpus:
        empty = False
        if not seq.tala_label:
            raise ValueError("training sequences must carry a tala label")
        table = counts.setdefault(seq.tala_label, {})
        padded = (SENTINEL_ID,) * (n - 1) + seq.strokes
        for i, nxt in enumerate(seq.strokes):
            ctx = padded[i : i + n - 1]
            slot = table.setdefault(ctx, {})
            slot[nxt] = slot.get(nxt, 0) + 1
    if empty:
        raise ValueError("empty training corpus")
    return NGramPrior(n, laplace_k, vocab.num_playable, counts)


class TalaPosteriorTable:
    """Window counts and tala priors backing the online tala posterior.

    ``counts[tala][u]`` is the number of occurrences of the stroke window
    ``u`` (length 1..w_tau) in training sequences labeled ``tala``; ``priors``
    holds P(tala) proportional to each tala's stroke share of the corpus.
    """

    def __init__(
        self,
        w_tau: int,
        laplace_k: float,
        counts: dict[str, dict[tuple[int, ...], int]],
        priors: dict[str, float],
    ) -> None:
        if w_tau < 1:
            raise ValueError("w_tau must be >= 1")
        if laplace_k <= 0:
            raise ValueError("laplace_k must be positive")
        if not priors:
            raise ValueError("empty tala set")
        if set(counts) - set(priors):
            raise ValueError("counts reference talas missing from priors")
        self.w_tau = w_tau
        self.laplace_k = laplace_k
        self.counts = counts
        self.priors = priors
        self.talas: tuple[str, ...] = tuple(sorted(priors))
        self._prior_vec = np.array([priors[t] for t in self.talas])

    def posterior(self, u: Sequence[int]) -> np.ndarray:
        """P(tala | u) over ``self.talas``; reduces to the prior for unseen u.

        Not memoized: for a non-empty ``u`` the result depends only on the
        per-tala counts of ``u``, which :class:`TalaIndependentPrior` uses as
        its memo key.
        """
        if len(u) > self.w_tau:
            raise ValueError(f"history window longer than w_tau={self.w_tau}")
        key = tuple(u)
        if not key:
            # No evidence yet: Bayes' rule collapses to the prior.
            return self._prior_vec / self._prior_vec.sum()
        weights = np.array(
            [
                (self.counts.get(t, {}).get(key, 0) + self.laplace_k) * self.priors[t]
                for t in self.talas
            ]
        )
        return weights / weights.sum()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TalaPosteriorTable):
            return NotImplemented
        return (
            self.w_tau == other.w_tau
            and self.laplace_k == other.laplace_k
            and self.counts == other.counts
            and self.priors == other.priors
        )


def train_tala_table(
    corpus: Iterable[StrokeSequence],
    w_tau: int = 16,
    laplace_k: float = 1.0,
) -> TalaPosteriorTable:
    """Count every stroke window of length 1..w_tau per tala."""
    counts: dict[str, dict[tuple[int, ...], int]] = {}
    stroke_totals: dict[str, int] = {}
    for seq in corpus:
        if not seq.tala_label:
            raise ValueError("training sequences must carry a tala label")
        table = counts.setdefault(seq.tala_label, {})
        stroke_totals[seq.tala_label] = stroke_totals.get(seq.tala_label, 0) + len(seq)
        s = seq.strokes
        for length in range(1, min(w_tau, len(s)) + 1):
            for i in range(len(s) - length + 1):
                key = s[i : i + length]
                table[key] = table.get(key, 0) + 1
    if not stroke_totals:
        raise ValueError("empty training corpus")
    total = sum(stroke_totals.values())
    priors = {t: c / total for t, c in stroke_totals.items()}
    return TalaPosteriorTable(w_tau, laplace_k, counts, priors)


class TalaIndependentPrior:
    """Memoizing tala-independent :class:`NextStrokePrior`.

    Marginalizes the per-tala n-gram over the online tala posterior computed
    from the most recent ``w_tau`` strokes of a playable-stroke history,
    where ``w_tau`` is the table's trained window.

    Its state is the tuple of the last ``max(w_tau, n - 1)`` strokes, all
    the mixture reads.  ``start()`` is the empty history's state,
    ``advance(state, stroke)`` checks the stroke id and appends it, and
    ``dist(state)`` returns the mixture as a tuple of floats.  Outside
    decoding, ``prob(history)`` is ``dist`` of the history's state, as a
    read-only array.

    The memo key is ``(counts, ctx)``: the window's training count per tala
    (``None`` for an empty window, whose posterior is the normalized prior)
    and the n-gram context.  The counts come from one probe of a table built
    with the prior, from each training window to its counts in
    ``table.talas`` order.  Windows never seen in training share one key per
    context, so the memo is bounded by the training data.  It holds each
    mixture twice, as a tuple and as an array marked read-only, so no caller
    can change what later calls return.
    """

    def __init__(self, prior: NGramPrior, table: TalaPosteriorTable):
        if set(prior.talas) != set(table.talas):
            raise ValueError("prior and posterior table trained on different tala sets")
        self.prior = prior
        self.table = table
        self._cache: dict[
            tuple[tuple[int, ...] | None, tuple[int, ...]], tuple[tuple[float, ...], np.ndarray]
        ] = {}
        self._suffix = max(table.w_tau, prior.n - 1)
        # Windows seen in no tala share one zero tuple.
        talas = table.talas
        merged: dict[tuple[int, ...], list[int]] = {}
        for i, tala in enumerate(talas):
            for u, c in table.counts.get(tala, {}).items():
                merged.setdefault(u, [0] * len(talas))[i] = c
        self._window_counts = {u: tuple(c) for u, c in merged.items()}
        self._unseen = (0,) * len(talas)

    def start(self) -> tuple[int, ...]:
        """The state of the empty history."""
        return ()

    def advance(self, state: tuple[int, ...], stroke: int) -> tuple[int, ...]:
        """The state after ``stroke``; raises ``VocabularyError`` for a foreign id."""
        if not 1 <= stroke <= self.prior.num_playable:
            raise VocabularyError(f"stroke id {stroke} is outside the prior's vocabulary")
        state += (stroke,)
        return state[1:] if len(state) > self._suffix else state

    def dist(self, state: tuple[int, ...]) -> tuple[float, ...]:
        """The next-stroke mixture after ``state``, as a tuple of floats."""
        return self._entry(state)[0]

    def prob(self, history: Sequence[int]) -> np.ndarray:
        """The next-stroke mixture after ``history``, as a read-only array."""
        state = tuple(history[-self._suffix :]) if self._suffix else ()
        if state and (min(state) < 1 or max(state) > self.prior.num_playable):
            raise VocabularyError(f"history {state} holds a stroke id outside the prior's vocabulary")
        return self._entry(state)[1]

    def _entry(self, state: tuple[int, ...]) -> tuple[tuple[float, ...], np.ndarray]:
        w_tau = self.table.w_tau
        u = state[len(state) - w_tau :] if len(state) > w_tau else state
        ctx = self.prior.context_of(state)
        counts = self._window_counts.get(u, self._unseen) if u else None
        cached = self._cache.get((counts, ctx))
        if cached is not None:
            return cached
        post = self.table.posterior(u)
        mix = np.zeros(self.prior.num_playable)
        for weight, tala in zip(post, self.table.talas):
            mix += weight * self.prior.distribution(tala, ctx)
        mix.flags.writeable = False
        cached = self._cache[counts, ctx] = (tuple(mix.tolist()), mix)
        return cached
