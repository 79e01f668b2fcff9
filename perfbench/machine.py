"""The speed of the machine, measured by a fixed reference kernel.

A shared machine runs the same work at speeds up to 2x apart, switching
within a second and sometimes staying slow or fast for minutes.  Wall times
of separate runs then differ by more than any regression worth catching.
The benchmark therefore times a fixed reference kernel ten times a second
while it works, from a timer signal, and reports each time at the reference
speed: scaled by ``REFERENCE_S`` over the kernel's mean time while the timed
work ran.  The kernel's own time is taken out of the times it interrupts.

The kernel does the kinds of work the program does (text parsing into dicts
and lists, an integer DP, small numpy array operations) on inputs fixed
here, independent of the program, the seed and the workload.  It runs with
the garbage collector off, so the program's heap size does not enter it.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import itertools
import random
import signal
import statistics
import time
from typing import Iterator

import numpy

import checks

# About the kernel's time on the machine the benchmark was defined on
# (Intel Xeon, 2.1 GHz, Python 3.11, numpy 2.4).  Only a unit: it is the
# same on both sides of any comparison.
REFERENCE_S = 0.001
# Seconds between speed samples, and how far around an interval samples
# still count towards its speed.
EVERY_S = 0.1
MARGIN_S = 0.25


def _inputs(seed: int = 1):
    rng = random.Random(seed)
    lines = [f"# reference lattice {seed}", "start 0", "final 60"]
    for src in range(60):
        for _ in range(3):
            lines.append(f"arc {src} {src + 1} s{rng.randrange(12)} {rng.uniform(-9, 0):.6f}")
    ref = [rng.randrange(12) for _ in range(24)]
    hyp = [s if rng.random() < 0.7 else rng.randrange(12) for s in ref]
    vectors = [numpy.array([rng.random() + 0.01 for _ in range(12)]) for _ in range(24)]
    return "\n".join(lines), ref, hyp, vectors


_TEXT, _REF, _HYP, _VECTORS = _inputs()


def kernel() -> float:
    """One call of the reference work; returns a checksum of it."""
    arcs: dict[int, list[tuple[int, str, float]]] = {}
    for line in _TEXT.splitlines():
        fields = line.split()
        if fields and fields[0] == "arc":
            arcs.setdefault(int(fields[1]), []).append((int(fields[2]), fields[3], float(fields[4])))
    total = float(sum(len(v) for v in arcs.values()))
    total += checks.edit_distance(_REF, _HYP)
    for p, q in zip(_VECTORS, _VECTORS[1:]):
        p = p / p.sum()
        q = q / q.sum()
        m = 0.5 * (p + q)
        total += float(numpy.sum(p * numpy.log(p / m)) + numpy.sum(q * numpy.log(q / m)))
    return total


class SpeedProbe:
    """Speed samples of the machine, taken every ``EVERY_S`` seconds inside
    ``with probe.running():``.

    A sample is the faster of two back-to-back kernel calls, so that a single
    pause of the process does not read as a slow machine.  ``spent`` is the
    wall time all sampling took; subtract its growth over an interval from
    the interval's duration.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample was taken, ascending
        self.spent = 0.0
        self._sampling = False

    def sample(self) -> None:
        """Time the kernel now, unless a sample is already being taken."""
        if self._sampling:
            return
        self._sampling = True
        clock = time.perf_counter
        start = clock()
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(2):
                t0 = clock()
                kernel()
                times.append(clock() - t0)
            self.samples.append(min(times))
            self.times.append(start)
            self.spent += clock() - start
        finally:
            if enabled:
                gc.enable()
            self._sampling = False

    @contextlib.contextmanager
    def running(self) -> Iterator[None]:
        """Sample from a timer signal while the block runs, and once before."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Reference time over the machine's time for the same work, over all
        samples: multiply a time by it, divide a rate by it."""
        if not self.samples:
            raise RuntimeError("no speed samples")
        return REFERENCE_S / statistics.fmean(self.samples)

    def scales_over(self, intervals: list[tuple[float, float]]) -> list[float]:
        """The scale over each ``(start, end)`` interval: from the mean of the
        samples taken within ``MARGIN_S`` of it, or the nearest sample."""
        if not self.samples:
            raise RuntimeError("no speed samples")
        sums = [0.0, *itertools.accumulate(self.samples)]
        scales = []
        for start, end in intervals:
            lo = bisect.bisect_left(self.times, start - MARGIN_S)
            hi = bisect.bisect_right(self.times, end + MARGIN_S)
            if lo == hi:  # no sample near: the nearest one
                near = [k for k in (hi - 1, hi) if 0 <= k < len(self.samples)]
                lo = min(near, key=lambda k: min(abs(self.times[k] - start), abs(self.times[k] - end)))
                hi = lo + 1
            scales.append(REFERENCE_S * (hi - lo) / (sums[hi] - sums[lo]))
        return scales
