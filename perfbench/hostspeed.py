"""Host speed from a fixed stdlib-only loop, used to scale measured times.

On a shared machine the speed of a core drifts from one minute to the
next.  On a 2-vCPU cloud host, identical blocks of ``orbits`` jobs
took between 3.7 and 5.4 s within two minutes of one process, and one
chunk of the loop below drifted with them (7.1 to 10.5 ms).  Dividing
each block's time by the chunk time measured around it cut the blocks'
interquartile range from 0.21 to 0.08 of their median.

So the worker times one chunk between jobs, outside the timed region,
at most every ``EVERY_S`` seconds, and each time the benchmark reports
is scaled by ``NOMINAL_S`` over the median chunk time of the
``NEIGHBOURS`` samples nearest to it: it reads as on a host where one
chunk takes ``NOMINAL_S``.  A change to the engine does not touch the
loop, so it moves the scaled times as much as the raw ones; the raw
times are printed beside them.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

ITERATIONS = 100_000
NOMINAL_S = 0.008       # one chunk on the host the figures are scaled to
EVERY_S = 0.25
NEIGHBOURS = 5


def chunk() -> float:
    """Seconds one run of the fixed loop takes."""
    t0 = perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


class Sampler:
    """Chunk times, each with the moment it was taken."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)
        self._last = float("-inf")

    def sample(self):
        t0 = perf_counter()
        d = chunk()
        self.samples.append((t0 + d / 2, d))
        self._last = perf_counter()

    def tick(self):
        """Take a sample if the last one is ``EVERY_S`` old."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()


def scale(samples, at: float) -> float:
    """NOMINAL_S over the median chunk of the samples nearest ``at``."""
    times = [t for t, _ in samples]
    i = bisect.bisect_left(times, at)
    lo = max(0, min(i - NEIGHBOURS // 2, len(samples) - NEIGHBOURS))
    near = [d for _, d in samples[lo:lo + NEIGHBOURS]]
    return NOMINAL_S / statistics.median(near)
