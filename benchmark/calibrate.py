"""Host-speed reference for the timed figures.

The benchmark runs on a few cores of a shared host whose speed drifts:
over a 25 s run every cmpc call of one run can be 20-30% slower than in
the next, in CPU time as much as in wall time, so the drift is not
scheduling. A fixed reference kernel, made of the same kinds of work as
cmpc (Python loops over tuples and sorts, small numpy array calls inside
loops, a few larger array passes) and independent of cmpc, slows down
with it. The run samples the kernel between timed calls, once per
SAMPLE_EVERY_S seconds of timed work, and the timed figures are scaled by
NOMINAL_S / (median kernel time of the run): they read as seconds on a
host where the kernel takes NOMINAL_S. A change to cmpc moves them in
full; a change of host speed moves them less.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

# About the median kernel time on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy with one BLAS thread); it only sets the scale of the figures.
NOMINAL_S = 0.08
SAMPLE_EVERY_S = 0.5

_RNG = random.Random(20240601)
_POINTS = [(_RNG.random() * 100.0, _RNG.random() * 100.0) for _ in range(240)]
_ARRAY = np.random.default_rng(20240601).random((160, 160))


def kernel() -> float:
    """One pass of the reference work; returns a checksum so none is skipped."""
    acc = 0.0
    buckets: dict[int, float] = {}
    head = _POINTS[:64]
    for i, (x, y) in enumerate(_POINTS * 2):
        row = sorted(((x - u) ** 2 + (y - v) ** 2, j) for j, (u, v) in enumerate(head))
        acc += row[3][0]
        buckets[i % 31] = buckets.get(i % 31, 0.0) + row[1][0]
    vec = _ARRAY[0]
    for i in range(3600):
        part = _ARRAY[i % 160, : 20 + i % 60]
        acc += float(np.maximum(0.0, part - vec[: len(part)]).sum())
        acc += float(np.where(part > 0.5, part, 0.0).min())
    for _ in range(20):
        d = ((_ARRAY[:, None, :4] - _ARRAY[None, :, :4]) ** 2).sum(-1)
        acc += float(np.argsort(d, axis=1)[0, 1])
    return acc + sum(buckets.values())


def measure() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Reference:
    """Kernel samples spread over a run's timed calls."""

    def __init__(self):
        self.samples = [measure()]
        self.since = 0.0  # timed seconds since the last sample

    def timed(self, seconds: float) -> None:
        """Count a timed call; then sample the kernel once per SAMPLE_EVERY_S
        of timed work since the last sample, so a long call is followed by
        as many samples as its length warrants."""
        self.since += seconds
        while self.since >= SAMPLE_EVERY_S:
            self.samples.append(measure())
            self.since -= SAMPLE_EVERY_S

    @property
    def scale(self) -> float:
        return NOMINAL_S / statistics.median(self.samples)
