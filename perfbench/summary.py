"""Order statistics shared by the benchmark runner and the compare command."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly above it.

    The nearest rank is the smallest sample with at least ``pct`` percent
    of the samples at or below it. The count beyond it tells a reader
    whether the tail estimate rests on enough samples (ten or more).
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError("pct must lie in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    return value, beyond


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile.

    Uses ``statistics.quantiles(values, n=4)``, the rule the benchmark's
    steadiness check is defined with; a single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0.0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)
