"""How fast the host runs right now, from a fixed reference loop.

The benchmark shares a few cores of a host with other tenants, and the
host's speed moves in stretches of minutes.  On the 2-core VM the
benchmark was tuned on, the same Figure-5 op took a median 8.5 s in
one stretch and 4.3 s in another, and a reference loop like the one
below took 0.375 s and 0.165 s.  Runs of the same code a few minutes
apart then differ by more than any bound a regression check can use.

So every run times the reference loop at quiet moments spread over the
run (never while the program works), and reports its times scaled to
the reference speed: ``value * REFERENCE_S / median(loop times)``.  The
loop is the benchmark's own code and calls nothing in the program, so
a change to the program moves the scaled times by the same share as the
measured ones.  The measured values and the factor are printed above
the result line.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median time of one reference loop on the 2-core VM the benchmark was
#: tuned on, in a fast stretch.  Any constant works; this one keeps the
#: scaled times near the seconds measured in such a stretch.
REFERENCE_S = 0.105

#: Units of the metrics that are times (scaled by the factor) and of
#: those that are rates (divided by it).
TIME_UNITS = ("s", "ms")
RATE_UNITS = ("1/s",)


def reference_loop() -> float:
    """Seconds for a fixed mix of dict, set, sort and numpy work."""
    start = time.perf_counter()
    table = {}
    seen = set()
    for i in range(130_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        seen.add((key, i & 15))
    sorted(table.items())
    values = np.arange(200_000)
    for _ in range(3):
        np.unique((values * 31) % 50_000)
    return time.perf_counter() - start


class HostSpeed:
    """Reference-loop samples of one run and the factor they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Time the loop ``repeats`` times; call only while nothing runs."""
        self.samples.extend(reference_loop() for _ in range(repeats))

    def factor(self) -> float:
        """Reference time over measured time: below 1 on a slow host."""
        return REFERENCE_S / statistics.median(self.samples)

    def scale(self, value: float, unit: str) -> float:
        """``value`` at the reference speed, if ``unit`` is a time or rate."""
        if unit in TIME_UNITS:
            return value * self.factor()
        if unit in RATE_UNITS:
            return value / self.factor()
        return value
