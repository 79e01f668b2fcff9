"""The tala-independent static prior: per-tala n-grams under an online tala posterior.

The static prior is a mixture: an online posterior over the latent tala,
estimated from a recent-history window, weights per-tala Laplace-smoothed
n-gram distributions over the next stroke.  :class:`TalaIndependentPrior`
holds the order ``n``, ``laplace_k``, the tala window ``w_tau`` and each
count table once; it is the one next-stroke prior the rescorer reads.  It is
stepped along a path and answers one query, ``dist``; it computes the
mixture on Python floats, every sum left to right from ``0.0``, and memoizes
it on the values it depends on, so its memo is bounded by the training data,
not by decode traffic.  The path's state is a node of an automaton over the
window table (Aho and Corasick, CACM 1975) that keeps only the longest suffix
of the history that can still grow into a window; its nodes are built on
first use and bounded by the training data too.  :func:`train_static_prior`
builds the prior in one pass over a tala-labeled corpus.

A trained window table is prefix-closed: every prefix of a window in it is
a window in it too.  So training counts one window of up to ``w_tau``
strokes per position and passes each distinct window's count to its
prefixes, and the model file is written and read through the prefixes
(:mod:`talarescore.model`).
"""

from __future__ import annotations

from typing import Iterable

from .core import SENTINEL_ID, StrokeSequence, _check_hyperparameter
from .errors import VocabularyError


class TalaIndependentPrior:
    """Memoizing tala-independent next-stroke prior, as the rescorer steps it.

    ``counts[tala][ctx][next]`` counts the n-grams of training sequences
    labeled ``tala`` (contexts of exactly ``n - 1`` strokes, sentinel-padded
    at the sequence start); ``window_counts[tala][u]`` counts each stroke
    window ``u`` of length 1..w_tau; ``tala_priors`` holds P(tala).  All
    three name the same talas, each a non-empty name with no whitespace.
    ``n``, ``laplace_k`` and ``w_tau`` must lie in the model file's bounds.
    A trained window table is prefix-closed; a hand-edited one need not be.

    Its state is an opaque node of a window automaton.  ``start()`` is the
    empty history's state, ``advance(state, stroke)`` checks the stroke id
    and steps to the state after it, and ``dist(state)`` returns the mixture
    as a tuple of floats, one entry per playable stroke (index
    ``stroke_id - 1``); it is the one query.  Each tala's weight is
    ``(c + laplace_k) * P(tala)``, ``c`` the window's count in the tala
    (``P(tala)`` for the empty window), over the weights' total, and its
    n-gram row is ``laplace_k`` per cell plus the counts, over the row's
    total.  Every next-stroke id in ``counts`` must lie in 1..num_playable.

    A node's key is ``(q, full, ctx)``.  ``q`` is the longest suffix of the
    history, at most ``w_tau`` strokes long, that is a prefix of a window in
    the table (in a trained, prefix- and suffix-closed table, the longest
    suffix that is a window); ``full`` is False only while the whole history
    is ``q`` and shorter than ``w_tau``; ``ctx`` is the n-gram context.  The
    key fixes the mixture exactly: the window the posterior reads, the last
    ``min(len(history), w_tau)`` strokes, is ``q`` when ``full`` is False or
    ``q`` is ``w_tau`` long, and otherwise is no window prefix at all, since
    ``q`` would then be longer.  Every suffix of the history that is a window
    prefix ends in a suffix of ``q``, so a step needs only ``q`` and the
    stroke: it drops strokes from the left of ``q + (stroke,)``, cut to
    ``w_tau``, until the rest is a window prefix.  Nodes and their
    transitions are built on first use and shared by every path and decode;
    there are at most twice as many as there are (window prefix, context)
    pairs, the empty prefix included, however much is decoded.

    The memo key is ``(counts, ctx)``: the window's training count per tala
    in ``talas`` order (``None`` for an empty window, whose posterior is the
    normalized prior) and the n-gram context.  The counts come from one
    probe of a table from each training window to its counts, merged over
    the talas on the first query; it holds every prefix of a window too, a
    prefix missing from a hand-edited table with the unseen counts.  Windows
    never seen in training share one zero tuple, so the memo is bounded by
    the training data.  Each value is the mixture's tuple, which no caller
    can change.  A node reads its mixture from the memo on its first
    ``dist`` and keeps it.
    """

    def __init__(
        self,
        *,
        n: int,
        laplace_k: float,
        w_tau: int,
        num_playable: int,
        counts: dict[str, dict[tuple[int, ...], dict[int, int]]],
        window_counts: dict[str, dict[tuple[int, ...], int]],
        tala_priors: dict[str, float],
    ) -> None:
        for kind, value in (("n", n), ("laplace_k", laplace_k), ("w_tau", w_tau)):
            _check_hyperparameter(kind, value)
        if not tala_priors:
            raise ValueError("empty tala set")
        if not set(counts) == set(window_counts) == set(tala_priors):
            raise ValueError("n-gram counts, window counts and tala priors name different tala sets")
        for tala in tala_priors:
            if tala.split() != [tala]:
                # The model file's lines are split on whitespace.
                raise ValueError(f"tala name {tala!r} is empty or holds whitespace")
        for tala, table in counts.items():
            for ctx, row in table.items():
                for nxt in row:
                    if not 1 <= nxt <= num_playable:
                        raise ValueError(
                            f"tala {tala!r}: n-gram {ctx!r} -> {nxt!r}: next stroke id not in 1..{num_playable}"
                        )
        if not any(laplace_k * p > 0 for p in tala_priors.values()):
            # Every weight of a window seen in no tala would be 0.
            raise ValueError(
                f"laplace_k={laplace_k!r} times every tala prior underflows to 0, "
                "leaving the tala posterior of an unseen window undefined"
            )
        self.n = n
        self.laplace_k = laplace_k
        self.w_tau = w_tau
        self.num_playable = num_playable
        self.counts = counts
        self.window_counts = window_counts
        self.tala_priors = tala_priors
        self.talas: tuple[str, ...] = tuple(sorted(tala_priors))
        self._unseen = (0,) * len(self.talas)
        # Built on the first query, so that training and loading do not pay for it.
        self._probe: dict[tuple[int, ...], tuple[int, ...]] | None = None
        self._cache: dict[tuple[tuple[int, ...] | None, tuple[int, ...]], tuple[float, ...]] = {}
        self._root = _Node(((), False, (SENTINEL_ID,) * (n - 1)), num_playable)
        self._nodes: dict[tuple[tuple[int, ...], bool, tuple[int, ...]], _Node] = {self._root.key: self._root}

    def start(self) -> _Node:
        """The state of the empty history."""
        return self._root

    def advance(self, state: _Node, stroke: int) -> _Node:
        """The state after ``stroke``; raises ``VocabularyError`` for a foreign id."""
        if not 1 <= stroke <= self.num_playable:
            raise VocabularyError(f"stroke id {stroke} is outside the prior's vocabulary")
        target = state.next[stroke]
        if target is None:
            target = state.next[stroke] = self._step(state.key, stroke)
        return target

    def dist(self, state: _Node) -> tuple[float, ...]:
        """The next-stroke mixture after ``state``, as a tuple of floats."""
        mix = state.dist
        if mix is None:
            q, full, ctx = state.key
            if not (full or q):
                counts = None  # the empty history
            elif not full or len(q) == self.w_tau:
                counts = self._window_probe()[q]
            else:
                counts = self._unseen
            mix = self._cache.get((counts, ctx))
            if mix is None:
                mix = self._cache.setdefault((counts, ctx), self._mixture(counts, ctx))
            state.dist = mix
        return mix

    def _step(self, key: tuple[tuple[int, ...], bool, tuple[int, ...]], stroke: int) -> _Node:
        # The node after ``stroke`` from the node ``key``; see the class
        # docstring.  A racing thread that built the same node first wins.
        q, full, ctx = key
        prefixes = self._window_probe()
        c = q + (stroke,)
        if len(c) > self.w_tau:
            c = c[1:]
        while c and c not in prefixes:
            c = c[1:]
        full = full or len(c) != len(q) + 1 or len(c) == self.w_tau
        if ctx:
            ctx = ctx[1:] + (stroke,)
        key = (c, full, ctx)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes.setdefault(key, _Node(key, self.num_playable))
        return node

    def _window_probe(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        # Each training window to its counts in ``talas`` order, and each
        # prefix of one that the table lacks to the unseen counts.
        if self._probe is None:
            merged: dict[tuple[int, ...], list[int]] = {}
            for i, tala in enumerate(self.talas):
                for u, c in self.window_counts[tala].items():
                    merged.setdefault(u, [0] * len(self.talas))[i] = c
            probe = {u: tuple(c) for u, c in merged.items()}
            for u in merged:
                # A prefix already in the probe is a window, whose own
                # prefixes this loop covers, or was added with its prefixes.
                for length in range(len(u) - 1, 0, -1):
                    if u[:length] in probe:
                        break
                    probe[u[:length]] = self._unseen
            self._probe = probe
        return self._probe

    def _mixture(self, counts: tuple[int, ...] | None, ctx: tuple[int, ...]) -> tuple[float, ...]:
        # The mixture after a window with these per-tala counts and the
        # n-gram context ``ctx``; None, the empty window, has no evidence
        # yet, so Bayes' rule collapses to the prior.
        k = self.laplace_k
        priors = [self.tala_priors[t] for t in self.talas]
        weights = priors if counts is None else [(c + k) * p for c, p in zip(counts, priors)]
        z = 0.0
        for weight in weights:
            z += weight
        mix = [0.0] * self.num_playable
        for weight, tala in zip(weights, self.talas):
            row = [float(k)] * self.num_playable
            for nxt, c in self.counts[tala].get(ctx, {}).items():
                row[nxt - 1] += c
            total = 0.0
            for cell in row:
                total += cell
            for i, cell in enumerate(row):
                mix[i] += weight / z * (cell / total)
        return tuple(mix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TalaIndependentPrior):
            return NotImplemented
        return (
            self.n == other.n
            and self.laplace_k == other.laplace_k
            and self.w_tau == other.w_tau
            and self.num_playable == other.num_playable
            and self.counts == other.counts
            and self.window_counts == other.window_counts
            and self.tala_priors == other.tala_priors
        )


class _Node:
    """One state of :class:`TalaIndependentPrior`'s window automaton.

    ``next[stroke]`` is the node after a playable ``stroke`` and ``dist`` the
    mixture after this node's histories, each None until first asked for.
    """

    __slots__ = ("key", "next", "dist")

    def __init__(self, key: tuple[tuple[int, ...], bool, tuple[int, ...]], num_playable: int) -> None:
        self.key = key
        self.next: list[_Node | None] = [None] * (num_playable + 1)
        self.dist: tuple[float, ...] | None = None


def train_static_prior(
    corpus: Iterable[StrokeSequence], num_playable: int, n: int, laplace_k: float, w_tau: int
) -> TalaIndependentPrior:
    """Count n-grams and every stroke window of length 1..w_tau per tala in
    one pass; P(tala) is each tala's stroke share of the corpus.

    The windows are counted as one window of up to ``w_tau`` strokes per
    position, whose count each of its prefixes then takes too."""
    counts: dict[str, dict[tuple[int, ...], dict[int, int]]] = {}
    longest_windows: dict[str, dict[tuple[int, ...], int]] = {}  # the window of up to w_tau strokes at each position
    stroke_totals: dict[str, int] = {}
    for seq in corpus:
        tala = seq.tala_label
        if not tala:
            raise ValueError("training sequences must carry a tala label")
        s = seq.strokes
        stroke_totals[tala] = stroke_totals.get(tala, 0) + len(s)
        table = counts.setdefault(tala, {})
        padded = (SENTINEL_ID,) * (n - 1) + s
        for i, nxt in enumerate(s):
            slot = table.setdefault(padded[i : i + n - 1], {})
            slot[nxt] = slot.get(nxt, 0) + 1
        longest = longest_windows.setdefault(tala, {})
        for i in range(len(s)):
            key = s[i : i + w_tau]
            longest[key] = longest.get(key, 0) + 1
    if not stroke_totals:
        raise ValueError("empty training corpus")
    # Every window that starts at a position is a prefix of the longest one
    # there, so each distinct longest window passes its count to its prefixes.
    window_counts: dict[str, dict[tuple[int, ...], int]] = {}
    for tala, longest in longest_windows.items():
        windows = window_counts[tala] = {}
        for window, c in longest.items():
            for length in range(1, len(window) + 1):
                key = window[:length]
                windows[key] = windows.get(key, 0) + c
    total = sum(stroke_totals.values())
    return TalaIndependentPrior(
        n=n, laplace_k=laplace_k, w_tau=w_tau, num_playable=num_playable, counts=counts,
        window_counts=window_counts, tala_priors={t: c / total for t, c in stroke_totals.items()},
    )
