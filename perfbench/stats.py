"""The tail-latency rule of the end-to-end metrics."""

from __future__ import annotations

from typing import Sequence

TAIL_BEYOND = 10


def tail_percentile(samples: Sequence[float], beyond: int = TAIL_BEYOND):
    """The highest percentile of `samples` that has at least `beyond` samples above it.

    Nearest-rank definition: the p-th percentile of n sorted samples is the
    sample at rank ceil(p * n / 100).  The largest p that leaves `beyond`
    samples above that rank is p = 100 * (n - beyond) / n, and its value is
    the (beyond + 1)-th largest sample.  Returns (value, p, n).
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail percentile, got {n}")
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n

