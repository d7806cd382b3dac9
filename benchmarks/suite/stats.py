"""The two order statistics the suite reports, in one place."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["median_spread", "quantile"]


def median_spread(values: Sequence[float]) -> tuple[float, float]:
    """Median and IQR / median (spread 0.0 when fewer than two values)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]
