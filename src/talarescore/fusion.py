"""Adaptive interpolation of the static and dynamic rhythmic components.

All logarithms are natural.  The interpolation weight is the product of an
acoustic-confidence term (one minus the normalized entropy of the competing
arc scores) and the Jensen-Shannon divergence between the two rhythmic
distributions, normalized by its log 2 upper bound; it is therefore confined
to [0, 1] and yields a convex combination.  Every function here is pure.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

LOG2 = math.log(2.0)


def parse_lambda_mode(mode: str) -> float | None:
    """None for adaptive, otherwise the fixed weight.

    ``mode`` is either ``"adaptive"`` or ``"fixed:<v>"`` with v in [0, 1]; a
    bare number is accepted as shorthand for the fixed form.
    """
    text = str(mode).strip()
    if text == "adaptive":
        return None
    if text.startswith("fixed:"):
        text = text[len("fixed:"):]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"bad lambda mode {mode!r}; expected 'adaptive' or 'fixed:<v>'") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"fixed lambda must lie in [0, 1], got {value}")
    return value


def jsd(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Jensen-Shannon divergence in nats, within [0, log 2].

    Both inputs are smoothed by ``eps`` and renormalized before the divergence
    is computed, so zero cells cannot produce infinities.  The computation
    treats p and q identically, making the result exactly symmetric.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"support mismatch: {p.shape} vs {q.shape}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    scale = 1.0 + p.shape[0] * eps
    ps = (p + eps) / scale
    qs = (q + eps) / scale
    m = 0.5 * (ps + qs)
    log_m = np.log(m)
    kl_pm = float(np.sum(ps * (np.log(ps) - log_m)))
    kl_qm = float(np.sum(qs * (np.log(qs) - log_m)))
    return max(0.5 * kl_pm + 0.5 * kl_qm, 0.0)


def acoustic_confidence(arc_scores: Sequence[float]) -> float:
    """Confidence in [0, 1] from the log-scores of a node's outgoing arcs.

    Softmax-normalize the scores, then return one minus the entropy over the
    maximum possible entropy ``log(max(n, 2))``.  A single arc is fully
    confident; exactly equal scores across several arcs give zero confidence.
    Stable for scores spanning +-700 thanks to max subtraction.
    """
    scores = np.asarray(arc_scores, dtype=float)
    n = scores.shape[0]
    if n == 0:
        raise ValueError("confidence needs at least one outgoing arc")
    if n == 1:
        return 1.0
    if np.all(scores == scores[0]):
        return 0.0
    shifted = scores - scores.max()
    weights = np.exp(shifted)
    probs = weights / weights.sum()
    nonzero = probs > 0
    entropy = -float(np.sum(probs[nonzero] * np.log(probs[nonzero])))
    conf = 1.0 - entropy / math.log(max(n, 2))
    return min(max(conf, 0.0), 1.0)


def lambda_k(confidence: float, divergence: float) -> float:
    """Adaptive interpolation weight: confidence times divergence / log 2."""
    lam = confidence * divergence / LOG2
    return min(max(lam, 0.0), 1.0)


def combine(p_static: np.ndarray, p_dyn: np.ndarray, lam: float) -> np.ndarray:
    """Convex combination ``(1 - lam) * p_static + lam * p_dyn``."""
    p_static = np.asarray(p_static, dtype=float)
    p_dyn = np.asarray(p_dyn, dtype=float)
    if p_static.shape != p_dyn.shape:
        raise ValueError(f"support mismatch: {p_static.shape} vs {p_dyn.shape}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return (1.0 - lam) * p_static + lam * p_dyn

