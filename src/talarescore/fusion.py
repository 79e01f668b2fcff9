"""Adaptive interpolation of the static and dynamic rhythmic components.

All logarithms are natural.  The interpolation weight is the product of an
acoustic-confidence term (one minus the normalized entropy of the competing
arc scores) and the Jensen-Shannon divergence between the two rhythmic
distributions, normalized by its log 2 upper bound; it is therefore confined
to [0, 1] and yields a convex combination.  Every function here is pure.

The divergence and the combination run once per expanded decoding state on
distributions of a handful of cells, so they work on Python floats; they are
the decode step's unchecked ``_jsd_half``/``_jsd`` and ``_combine`` (the step
computes ``_combine``'s cell at each outgoing arc, by the same formula).  Every
logarithm and exponential is ``math.log``/``math.exp`` on one cell: the C
library's, which gives the arc weights their logs too, so the step has one
logarithm whatever SIMD kernels numpy would pick on the CPU.  Every sum of
the step, the static prior's mixture and the Dirichlet row total included,
runs left to right from ``0.0`` (the builtin ``sum`` is compensated from
Python 3.12 on).

Both distributions are smoothed by ``_EPS_JSD = 1e-8`` per cell before the
divergence, so zero cells give no infinities; the smoothing renormalizes by
``1 + V * 1e-8`` over V cells, which no vocabulary size overflows.

The divergence has two parts: ``_jsd_half`` smooths the static distribution
q and logs its cells; ``_jsd`` walks the cells once, smoothing p's cell and
adding its log and the midpoint's to both Kullback-Leibler sums.  The decode
computes a static distribution's half once and reuses it for every state
whose prior gives that distribution, so a state logs 2n cells, not 3n.
"""

from __future__ import annotations

import math
from typing import Sequence

LOG2 = math.log(2.0)
_EPS_JSD = 1e-8


def parse_lambda_mode(mode: str) -> float | None:
    """None for adaptive, otherwise the fixed weight.

    ``mode`` is either ``"adaptive"`` or ``"fixed:<v>"`` with v in [0, 1].
    """
    text = str(mode).strip()
    if text == "adaptive":
        return None
    try:
        if not text.startswith("fixed:"):
            raise ValueError(text)
        value = float(text[len("fixed:"):])
    except ValueError:
        raise ValueError(f"bad lambda mode {mode!r}; expected 'adaptive' or 'fixed:<v>'") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"fixed lambda must lie in [0, 1], got {value}")
    return value + 0.0  # -0.0 is the weight 0


def _jsd_half(q: Sequence[float]) -> tuple[list[float], list[float]]:
    # The static half of the divergence: q smoothed by _EPS_JSD and
    # renormalized by 1 + len(q) * _EPS_JSD, and its logarithms.
    scale = 1.0 + len(q) * _EPS_JSD
    qs = [(x + _EPS_JSD) / scale for x in q]
    return qs, [math.log(x) for x in qs]


def _jsd(p: Sequence[float], half: tuple[list[float], list[float]]) -> float:
    # The Jensen-Shannon divergence in nats, within [0, log 2], given q's
    # half; p is smoothed as q was, so zero cells give no infinities and
    # the result is exactly symmetric.  Unchecked, for the decode's step.
    qs, log_qs = half
    scale = 1.0 + len(qs) * _EPS_JSD
    kl_pm = kl_qm = 0.0
    for x, q, log_q in zip(p, qs, log_qs):
        ps = (x + _EPS_JSD) / scale
        log_m = math.log(0.5 * (ps + q))
        kl_pm += ps * (math.log(ps) - log_m)
        kl_qm += q * (log_q - log_m)
    return max(0.5 * kl_pm + 0.5 * kl_qm, 0.0)


def acoustic_confidence(arc_scores: Sequence[float]) -> float:
    """Confidence in [0, 1] from the log-scores of a node's outgoing arcs.

    Softmax-normalize the scores, then return one minus the entropy over the
    maximum possible entropy ``log(max(n, 2))``.  A single arc is fully
    confident; exactly equal scores across several arcs give zero confidence.
    Stable for scores spanning +-700 thanks to max subtraction.  Raises
    ValueError for no scores or a score that is not finite.
    """
    n = len(arc_scores)
    if n == 0:
        raise ValueError("confidence needs at least one outgoing arc")
    if not all(map(math.isfinite, arc_scores)):
        raise ValueError(f"confidence needs finite arc scores, got {list(arc_scores)!r}")
    if n == 1:
        return 1.0
    top = max(arc_scores)
    if all(s == top for s in arc_scores):
        return 0.0
    weights = [math.exp(s - top) for s in arc_scores]
    total = entropy = 0.0
    for w in weights:
        total += w
    for w in weights:
        p = w / total
        if p > 0.0:
            entropy -= p * math.log(p)
    return min(max(1.0 - entropy / math.log(n), 0.0), 1.0)


def lambda_k(confidence: float, divergence: float) -> float:
    """Adaptive interpolation weight: confidence times divergence / log 2."""
    lam = confidence * divergence / LOG2
    return min(max(lam, 0.0), 1.0)


def _combine(p_static: Sequence[float], p_dyn: Sequence[float], lam: float) -> list[float]:
    # The convex combination (1 - lam) * p_static + lam * p_dyn, as a list,
    # unchecked, for the decode's step.
    keep = 1.0 - lam
    return [keep * s + lam * d for s, d in zip(p_static, p_dyn)]

