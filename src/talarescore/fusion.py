"""Adaptive interpolation of the static and dynamic rhythmic components.

All logarithms are natural.  The interpolation weight is the product of an
acoustic-confidence term (one minus the normalized entropy of the competing
arc scores) and the Jensen-Shannon divergence between the two rhythmic
distributions, normalized by its log 2 upper bound; it is therefore confined
to [0, 1] and yields a convex combination.  Every function here is pure.

The divergence and the combination run once per expanded decoding state on
distributions of a handful of cells, so they work on Python floats: per-call
numpy overhead, not arithmetic, would set their cost.  The decode's step
calls their unchecked cores, which :func:`jsd` and :func:`combine` run after
checking their arguments.  Their results must stay bit-identical to the same
formulas on numpy arrays (the tests keep those as references), since the
pinned outputs rest on them.  The element-wise operations are correctly
rounded either way.  The logarithms stay ``np.log``, whose result differs
from ``math.log`` in the last bit on some inputs.

The divergence has two parts.  ``_jsd_half`` smooths the static
distribution q and takes its logarithms; ``_jsd`` smooths p, forms the
midpoint and logs p's and the midpoint's cells in one batched call.  The
decode computes a static distribution's half once and reuses it for every
state whose prior gives that distribution, so a state logs 2n cells, not 3n.
The split keeps the bits because ``np.log`` gives each element the same bits
whatever the array's length or the element's position.  The sums are
explicit left-to-right loops from ``0.0``: that is what numpy's sum does
below 8 cells (from 8 on it sums pairwise), whereas the builtin ``sum`` is
compensated from Python 3.12 on.
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


def jsd(p: Sequence[float], q: Sequence[float], eps: float) -> float:
    """Jensen-Shannon divergence in nats, within [0, log 2].

    Both inputs are smoothed by ``eps`` and renormalized before the divergence
    is computed, so zero cells cannot produce infinities.  The computation
    treats p and q identically, making the result exactly symmetric.
    ``eps`` must be positive and finite, and ``1 + n * eps`` must not
    overflow.
    """
    if len(p) != len(q):
        raise ValueError(_support_mismatch(p, q))
    if not 0 < eps < math.inf:  # NaN fails too
        raise ValueError("eps must be positive and finite")
    scale = 1.0 + len(q) * eps
    if scale == math.inf:
        raise ValueError(f"eps={eps!r} overflows the smoothing of {len(q)} cells")
    return _jsd(p, _jsd_half(q, eps, scale), eps, scale)


def _jsd_half(q: Sequence[float], eps: float, scale: float) -> tuple[list[float], list[float]]:
    # The static half of the divergence: q smoothed, and its logarithms.
    qs = [(x + eps) / scale for x in q]
    return qs, np.log(qs).tolist()


def _jsd(p: Sequence[float], half: tuple[list[float], list[float]], eps: float, scale: float) -> float:
    # jsd() without its checks, given q's half, for the decode's step.
    qs, log_qs = half
    n = len(qs)
    ps = [(x + eps) / scale for x in p]
    m = [0.5 * (a + b) for a, b in zip(ps, qs)]
    logs = np.log(ps + m).tolist()
    kl_pm = 0.0
    kl_qm = 0.0
    for i in range(n):
        log_m = logs[n + i]
        kl_pm += ps[i] * (logs[i] - log_m)
        kl_qm += qs[i] * (log_qs[i] - log_m)
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


def combine(p_static: Sequence[float], p_dyn: Sequence[float], lam: float) -> list[float]:
    """Convex combination ``(1 - lam) * p_static + lam * p_dyn``, as a list."""
    if len(p_static) != len(p_dyn):
        raise ValueError(_support_mismatch(p_static, p_dyn))
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return _combine(p_static, p_dyn, lam)


def _combine(p_static: Sequence[float], p_dyn: Sequence[float], lam: float) -> list[float]:
    # combine() without its checks, for the decode's step.
    keep = 1.0 - lam
    return [keep * s + lam * d for s, d in zip(p_static, p_dyn)]


def _support_mismatch(p: Sequence[float], q: Sequence[float]) -> str:
    return f"support mismatch: {len(p)} vs {len(q)}"
