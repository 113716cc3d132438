"""Speed reference: bench-owned work that tracks how fast the machine runs now.

On a shared machine the same request can take 1.5x longer for seconds at a
time while neighbours are busy.  Between requests the benchmark times a
fixed piece of its own work, shaped like the library's (small frozen
objects, float math, sorting, dict lookups), and scales every timing by
NOMINAL_S / (reference time measured around it).  A scaled time reads as
the time on a machine where the reference takes NOMINAL_S; raw wall times
are kept in the record next to it.  The reference never calls the library,
so a change to the library moves scaled and raw times alike.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

NOMINAL_S = 0.002
CHECK_EVERY_S = 0.25


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def reference_work() -> int:
    pts = []
    for i in range(1000):
        x, y = math.cos(i * 0.37), math.sin(i * 0.37) + 1.5
        n = math.hypot(x, y)
        pts.append(_Point(x / n, y / n))
    pts.sort(key=lambda p: math.atan2(p.y, p.x))
    table = {}
    for p in pts:
        table[round(p.x, 3)] = p
    return len(table)


class SpeedReference:
    """Reference timings taken at checkpoints; scales timings between them."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def checkpoint(self) -> None:
        runs = []
        for _ in range(5):
            start = perf_counter()
            reference_work()
            runs.append(perf_counter() - start)
        self.at.append(perf_counter())
        self.seconds.append(statistics.median(runs))

    def maybe_checkpoint(self) -> None:
        if not self.at or perf_counter() - self.at[-1] > CHECK_EVERY_S:
            self.checkpoint()

    def scale(self, when: float) -> float:
        """NOMINAL_S over the mean reference time of the checkpoints around `when`."""
        k = bisect.bisect_left(self.at, when)
        around = self.seconds[max(0, k - 1) : k + 1]
        return NOMINAL_S / statistics.fmean(around)
