"""Dirichlet-multinomial stroke-transition model with exponential forgetting.

One Dirichlet pseudo-count row per preceding symbol (sentinel included) over
playable next strokes.  Observing a transition decays every cell by ``1 - rho``
and adds ``rho`` to the observed cell, an exponentially weighted moving
average whose matrix total converges to 1 at rate ``1 - rho``.  States are
value-semantic: updates return new states and never mutate their input.
The decode keeps its snapshots as bare pseudo-count arrays and steps them with
the unchecked cores of :func:`update` and :func:`predict`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import SENTINEL_ID, StrokeSequence, StrokeVocabulary


@dataclass(frozen=True, eq=False, slots=True)
class DirichletState:
    """Pseudo-count matrix ``alpha[prev_id, next_id - 1]`` plus forgetting rate."""

    alpha: np.ndarray
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.alpha.ndim != 2 or self.alpha.shape[0] != self.alpha.shape[1] + 1:
            raise ValueError(f"alpha must be (num_symbols, num_playable), got {self.alpha.shape}")
        if not (self.alpha > 0).all():
            raise ValueError("alpha entries must be strictly positive")

    @property
    def num_playable(self) -> int:
        return self.alpha.shape[1]

    @classmethod
    def _trusted(cls, alpha: np.ndarray, rho: float) -> "DirichletState":
        # Internal constructor for update(), whose algebra preserves the
        # invariants; skips re-validation on the decode hot path.
        state = object.__new__(cls)
        object.__setattr__(state, "alpha", alpha)
        object.__setattr__(state, "rho", rho)
        return state


def init_alpha(
    corpus: Iterable[StrokeSequence],
    vocab: StrokeVocabulary,
    eps_dir: float = 1.0,
) -> np.ndarray:
    """Initial pseudo-counts: pooled transition counts plus ``eps_dir``.

    The sentinel row is uniformly 1 regardless of the corpus.  An empty corpus
    is allowed (warning emitted); playable rows are then all ``eps_dir``.
    """
    if eps_dir <= 0:
        raise ValueError("eps_dir must be positive")
    n = vocab.num_playable
    alpha = np.full((n + 1, n), eps_dir, dtype=float)
    alpha[SENTINEL_ID, :] = 1.0
    seen = False
    for seq in corpus:
        seen = True
        s = seq.strokes
        for prev, nxt in zip(s, s[1:]):
            alpha[prev, nxt - 1] += 1.0
    if not seen:
        warnings.warn("initializing Dirichlet parameters from an empty corpus", stacklevel=2)
    return alpha


def update(state: DirichletState, prev: int, nxt: int) -> DirichletState:
    """Observe the transition ``prev -> nxt`` and return the decayed state.

    Every cell decays by ``1 - rho`` before the observed cell gains ``rho``.
    """
    n = state.num_playable
    if not 0 <= prev <= n:
        raise ValueError(f"prev id {prev} out of range")
    if not 1 <= nxt <= n:
        raise ValueError(f"next id {nxt} is not a playable stroke")
    return DirichletState._trusted(_observe(state.alpha, state.rho, prev, nxt), state.rho)


def _observe(alpha: np.ndarray, rho: float, prev: int, nxt: int) -> np.ndarray:
    # update() on a bare pseudo-count array, unchecked: the decode's step
    # calls it with ids the lattice and the vocabulary mapping vouch for.
    alpha = alpha * (1.0 - rho)
    alpha[prev, nxt - 1] += rho
    return alpha


def predict(state: DirichletState, prev: int) -> list[float]:
    """Next-stroke distribution: the normalized ``prev`` row, as a list.

    Its unchecked core ``_predict`` runs once per expanded decoding state,
    so it works on Python floats; the row total is summed left to right, as
    numpy sums fewer than 8 cells (see :mod:`talarescore.fusion`).
    """
    if not 0 <= prev <= state.num_playable:
        raise ValueError(f"prev id {prev} out of range")
    return _predict(state.alpha, prev)


def _predict(alpha: np.ndarray, prev: int) -> list[float]:
    # predict() on a bare pseudo-count array, unchecked, for the decode's step.
    row = alpha[prev].tolist()
    total = 0.0
    for x in row:
        total += x
    return [x / total for x in row]
