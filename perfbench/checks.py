"""Output checks and sample statistics for the benchmark.

Everything here is independent of the ``talarescore`` package, so the checks
do not share a defect with the code they check.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

# decode_ms.tail is read at a fixed percentile per workload that leaves at
# least this many distinct decodes beyond it in every timed run.
TAIL_BEYOND = 10


def is_lattice_path(
    arcs: Iterable[tuple[int, int, int]],
    start: int,
    finals: Iterable[int],
    labels: Sequence[int],
) -> bool:
    """Whether ``labels`` spells some start-to-final path of the lattice.

    ``arcs`` holds ``(src, dst, label)`` triples.  A node x position DP: the
    frontier is the set of nodes reachable from ``start`` by a path that
    spells the first i labels.
    """
    out: dict[int, list[tuple[int, int]]] = {}
    for src, dst, label in arcs:
        out.setdefault(src, []).append((dst, label))
    frontier = {start}
    for q in labels:
        frontier = {dst for v in frontier for dst, label in out.get(v, ()) if label == q}
        if not frontier:
            return False
    return not frontier.isdisjoint(finals)


def edit_distance(ref: Sequence[int], hyp: Sequence[int]) -> int:
    """Unit-cost Levenshtein distance (two-row DP)."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]


def rank_at(n: int, bp: int) -> int:
    """1-based nearest rank, in ascending order, of percentile ``bp`` basis
    points among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, -(-bp * n // 10_000))


def hyp_digest(symbols: Sequence[str]) -> str:
    """Short content digest of one hypothesis, as stroke symbols."""
    return hashlib.sha256(" ".join(symbols).encode()).hexdigest()[:16]
