"""Structured event tracing and metrics for the monitor (observability).

The paper's fast-path argument rests on a per-cause breakdown of traps
(which causes dominate, and whether each is world-switched, emulated, or
offloaded).  This package records exactly that evidence as a stream of
typed events:

* :class:`Tracer` — a bounded ring buffer of :class:`TraceEvent`\\ s,
  each stamped with ``mtime`` and the hart's retired-instruction count.
  Attached to a machine via ``machine.tracer``; every emit site costs a
  single attribute load plus ``is None`` branch when tracing is off.
* :class:`MetricsRegistry` — per-trap-cause latency histograms (guest
  cycles) and world-switch/offload ratio gauges, fed by the paired
  trap-entry/trap-exit events.
* Chrome ``trace_event`` JSON export (:func:`to_chrome_trace`,
  :func:`dump_trace`) with a self-describing schema and a validator, a
  human-readable timeline renderer, and the paper-style per-cause cost
  table (``repro trace``).
"""

from repro.trace.export import (
    SCHEMA,
    cause_counts,
    dump_trace,
    load_trace,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.trace.metrics import LatencyHistogram, MetricsRegistry, ratio_gauges
from repro.trace.timeline import cause_table, render_timeline, trace_summary
from repro.trace.tracer import KINDS, TraceEvent, Tracer

__all__ = [
    "KINDS",
    "LatencyHistogram",
    "MetricsRegistry",
    "SCHEMA",
    "TraceEvent",
    "Tracer",
    "cause_counts",
    "cause_table",
    "dump_trace",
    "load_trace",
    "ratio_gauges",
    "render_timeline",
    "to_chrome_trace",
    "trace_summary",
    "validate_chrome_trace",
]
