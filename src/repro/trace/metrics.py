"""Metrics on top of the event stream: latency histograms and gauges.

Latencies are guest cycles between a trap entering M-mode and the
monitor resuming the interrupted world — the quantity behind the paper's
per-cause trap-cost table.  Buckets are powers of two so a histogram is
a dozen integers regardless of run length.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional


class LatencyHistogram:
    """Power-of-two-bucket histogram with exact count/mean/min/max."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max = 0.0
        #: bucket exponent k -> observations with value < 2**k.
        self.buckets: Counter[int] = Counter()

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[max(int(value).bit_length(), 1)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def clone(self) -> "LatencyHistogram":
        other = LatencyHistogram()
        other.count = self.count
        other.total = self.total
        other.min = self.min
        other.max = self.max
        other.buckets = Counter(self.buckets)
        return other

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": round(self.mean, 1),
            "min": round(self.min, 1) if self.min is not None else None,
            "max": round(self.max, 1),
            "buckets": {f"<2^{k}": v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Per-cause trap metrics plus named gauges."""

    def __init__(self):
        #: cause name -> latency histogram (guest cycles).
        self.trap_latency: dict[str, LatencyHistogram] = {}
        #: flat (cause, handler) counter — one dict op on the hot path;
        #: use :attr:`handler_counts` for the nested per-cause view.
        self._handlers: Counter[tuple[str, str]] = Counter()
        self.gauges: dict[str, float] = {}

    def observe_trap(self, cause: str, handler: str, cycles: float) -> None:
        histogram = self.trap_latency.get(cause)
        if histogram is None:
            histogram = self.trap_latency[cause] = LatencyHistogram()
        histogram.observe(cycles)
        self._handlers[(cause, handler)] += 1

    @property
    def handler_counts(self) -> dict[str, Counter]:
        """cause name -> Counter of final handlers."""
        nested: dict[str, Counter] = {}
        for (cause, handler), count in self._handlers.items():
            nested.setdefault(cause, Counter())[handler] = count
        return nested

    # -- epochs (watchdog restore / checkpoint rewind) --------------------

    def mark_epoch(self) -> dict:
        """Deep-copy the registry state at a restore point.

        Histograms cannot be rewound by subtraction (min/max are not
        invertible), so an epoch is a full copy — they are small (a
        dozen integers per cause) and epochs are only marked per
        firmware activation when tracing is enabled at all.
        """
        return {
            "trap_latency": {cause: histogram.clone()
                             for cause, histogram in self.trap_latency.items()},
            "handlers": Counter(self._handlers),
            "gauges": dict(self.gauges),
        }

    def rewind_to_epoch(self, epoch: dict) -> None:
        self.trap_latency = {cause: histogram.clone()
                             for cause, histogram in epoch["trap_latency"].items()}
        self._handlers = Counter(epoch["handlers"])
        self.gauges = dict(epoch["gauges"])

    def snapshot(self) -> dict:
        return {
            "trap_latency_cycles": {
                cause: histogram.snapshot()
                for cause, histogram in sorted(self.trap_latency.items())
            },
            "handlers": {
                cause: dict(counts)
                for cause, counts in sorted(self.handler_counts.items())
            },
            "gauges": dict(self.gauges),
        }


def ratio_gauges(tracer) -> dict:
    """World-switch and offload ratios relative to total traps."""
    traps = tracer.counts.get("trap-entry", 0)

    def per_trap(kind: str) -> float:
        return round(tracer.counts.get(kind, 0) / traps, 4) if traps else 0.0

    return {
        "world_switches_per_trap": per_trap("world-switch"),
        "offload_hits_per_trap": per_trap("fastpath"),
        "emulation_steps_per_trap": per_trap("fw-emulate"),
    }
