"""Host-speed calibration for the end-to-end timings.

On a shared host the same pure-Python work can run 40% slower for tens of
seconds at a time.  That was measured on a 2-vCPU Intel Xeon virtual machine
at 2.1 GHz, and neither the fastest step of a run nor the process CPU time
removes it.  So between workload steps the benchmark times a fixed
calibration task, which is its own code and independent of zonomix.  Each
step is scaled by REFERENCE_NS over the mean of the calibrations just before
and just after it.  A reported time therefore reads as if the calibration
task took REFERENCE_NS.  On that machine the ratio of step time to
calibration time held within a few percent from run to run, while raw step
times moved by 30% and more.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# The calibration task's time on the machine above when it was not contended.
REFERENCE_NS = 9_300_000

_rnd = random.Random("calibration")
_VECTORS = [tuple(_rnd.randint(-99, 99) for _ in range(3)) for _ in range(14)]
_RATIONALS = [Fraction(_rnd.randint(-16, 16), _rnd.randint(1, 16)) for _ in range(150)]


def calibration_task() -> int:
    """Integer |det| sums and Fraction products, the mix zonomix runs; returns ns taken."""
    start = time.perf_counter_ns()
    total = 0
    n = len(_VECTORS)
    for i in range(n):
        ax, ay, az = _VECTORS[i]
        for j in range(i + 1, n):
            bx, by, bz = _VECTORS[j]
            px, py, pz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
            for k in range(j + 1, n):
                cx, cy, cz = _VECTORS[k]
                d = cx * px + cy * py + cz * pz
                total += d if d >= 0 else -d
    acc = Fraction(total)
    for a in _RATIONALS:
        for b in _RATIONALS[:25]:
            acc += a * b
    return time.perf_counter_ns() - start


class HostSpeed:
    """Scale factors for the work done between successive calls of `factor`."""

    def __init__(self):
        self._last = self._measure()
        self.factors: list[float] = []

    @staticmethod
    def _measure() -> float:
        # A mean, not a minimum: contention comes in bursts, and the mean
        # tracks how much of the time a burst slows the host.
        return sum(calibration_task() for _ in range(3)) / 3

    def factor(self) -> float:
        """REFERENCE_NS over the mean calibration before and after the latest step."""
        now = self._measure()
        factor = REFERENCE_NS / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return factor
