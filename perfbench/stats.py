"""Percentiles and the tail rule shared by the benchmark's modules."""

from __future__ import annotations

#: Tail candidates: the tail is the highest one with at least MIN_BEYOND
#: samples above it.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(ordered: list, p: float) -> float:
    """Linear-interpolated ``p``-th percentile of a sorted list."""
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> float:
    """The highest TAIL_PERCENTILES entry with MIN_BEYOND samples above."""
    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if round(count * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:
            chosen = p
    return chosen


def tail(values: list) -> tuple[float, float]:
    """``(percentile, value)`` of the tail latency of ``values``."""
    chosen = tail_percentile(len(values))
    return chosen, percentile(sorted(values), chosen)
