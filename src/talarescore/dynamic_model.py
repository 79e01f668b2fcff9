"""Dirichlet-multinomial stroke-transition model with exponential forgetting.

One Dirichlet pseudo-count row per preceding symbol (sentinel included) over
playable next strokes.  Observing a transition decays every cell by ``1 - rho``
and adds ``rho`` to the observed cell, an exponentially weighted moving
average whose matrix total converges to 1 at rate ``1 - rho``.  The decode
keeps its snapshots as bare pseudo-count arrays and steps them with the
unchecked ``_observe`` and ``_predict``; observing returns a new array and
never mutates its input.
"""

from __future__ import annotations

import warnings
from typing import Iterable

import numpy as np

from .core import SENTINEL_ID, StrokeSequence, StrokeVocabulary, _check_hyperparameter


def init_alpha(
    corpus: Iterable[StrokeSequence],
    vocab: StrokeVocabulary,
    eps_dir: float = 1.0,
) -> np.ndarray:
    """Initial pseudo-counts: pooled transition counts plus ``eps_dir``.

    ``eps_dir`` must lie in the model file's bounds.  The sentinel row is
    uniformly 1 regardless of the corpus.  An empty corpus is allowed
    (warning emitted); playable rows are then all ``eps_dir``.
    """
    _check_hyperparameter("eps_dir", eps_dir)
    alpha = _untrained_alpha(vocab.num_playable, eps_dir)
    seen = False
    for seq in corpus:
        seen = True
        s = seq.strokes
        for prev, nxt in zip(s, s[1:]):
            alpha[prev, nxt - 1] += 1.0
    if not seen:
        warnings.warn("initializing Dirichlet parameters from an empty corpus", stacklevel=2)
    return alpha


def _untrained_alpha(num_playable: int, eps_dir: float) -> np.ndarray:
    # The pseudo-counts before any count: eps_dir on playable rows, 1 on the sentinel row.
    alpha = np.full((num_playable + 1, num_playable), eps_dir, dtype=float)
    alpha[SENTINEL_ID, :] = 1.0
    return alpha


def _observe(alpha: np.ndarray, rho: float, prev: int, nxt: int) -> np.ndarray:
    # The pseudo-counts after the transition prev -> nxt, unchecked: the
    # decode's step calls it with ids the lattice and the vocabulary mapping
    # vouch for.
    alpha = alpha * (1.0 - rho)
    alpha[prev, nxt - 1] += rho
    return alpha


def _predict(alpha: np.ndarray, prev: int) -> list[float]:
    # The next-stroke distribution, the normalized prev row, as a list, on
    # Python floats for the decode's step; the row total is summed left to
    # right from 0.0, like every sum in the step (see talarescore.fusion).
    row = alpha[prev].tolist()
    total = 0.0
    for x in row:
        total += x
    return [x / total for x in row]
