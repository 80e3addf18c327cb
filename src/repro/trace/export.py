"""Chrome ``trace_event`` JSON export, dump/load, and schema validation.

The dump is a standard Chrome trace (loadable in ``chrome://tracing`` /
Perfetto): paired trap entry/exit events become complete ``"X"`` spans
named by cause with the handler and guest-cycle latency in ``args``;
everything else is an instant ``"i"`` event categorized by kind.
Aggregates (cumulative per-kind counts, per-cause counters, metrics,
quarantine dumps) ride in ``otherData`` so the per-cause numbers stay
exact even if the bounded ring dropped events.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.trace.metrics import ratio_gauges

#: Version tag checked by the validator (and the CI trace-smoke job).
SCHEMA = "repro-trace-v1"

_NAME_KEYS = ("name", "direction", "site", "state", "op", "what", "cause")

#: Metadata event names the validator accepts for ``ph: "M"`` records.
_METADATA_NAMES = ("process_name", "thread_name", "thread_sort_index")


def _track_metadata(trace_events: list[dict]) -> list[dict]:
    """Per-hart track labels: Chrome/Perfetto ``"M"`` metadata events.

    Every tid that appears in the trace gets a ``thread_name`` record so
    SMP runs render as one labelled track per hart instead of bare
    thread numbers.
    """
    tids = sorted({event["tid"] for event in trace_events})
    metadata = [{
        "name": "process_name",
        "ph": "M",
        "ts": 0,
        "pid": 0,
        "tid": tids[0] if tids else 0,
        "args": {"name": "repro-machine"},
    }]
    for tid in tids:
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "ts": 0,
            "pid": 0,
            "tid": tid,
            "args": {"name": f"hart {tid}"},
        })
    return metadata


def _instant(event, name: str, cat: str) -> dict:
    return {
        "name": name,
        "cat": cat,
        "ph": "i",
        "s": "t",
        "ts": event.mtime,
        "pid": 0,
        "tid": event.hart,
        "args": {"seq": event.seq, "instret": event.instret, **event.args},
    }


def to_chrome_trace(tracer) -> dict:
    """Render a tracer's ring into a Chrome trace document."""
    trace_events: list[dict] = []
    pending: dict[int, object] = {}
    for event in tracer.events():
        if event.kind == "trap-entry":
            # A second entry on the same hart means the previous trap was
            # delegated past the monitor (no exit): emit it as an instant.
            previous = pending.pop(event.hart, None)
            if previous is not None:
                trace_events.append(
                    _instant(previous, previous.args["cause"], "trap-entry")
                )
            pending[event.hart] = event
        elif event.kind == "trap-exit":
            entry = pending.pop(event.hart, None)
            if entry is None:
                trace_events.append(
                    _instant(event, event.args.get("handler", "trap-exit"),
                             "trap-exit")
                )
                continue
            trace_events.append({
                "name": entry.args["cause"],
                "cat": "trap",
                "ph": "X",
                "ts": entry.mtime,
                "dur": max(event.mtime - entry.mtime, 0),
                "pid": 0,
                "tid": entry.hart,
                "args": {
                    "seq": entry.seq,
                    "instret": entry.instret,
                    "handler": event.args.get("handler", "unclassified"),
                    "cycles": event.args.get("cycles"),
                },
            })
        else:
            name = next(
                (str(event.args[key]) for key in _NAME_KEYS
                 if key in event.args),
                event.kind,
            )
            trace_events.append(_instant(event, name, event.kind))
    for leftover in pending.values():
        trace_events.append(
            _instant(leftover, leftover.args["cause"], "trap-entry")
        )
    trace_events.sort(key=lambda e: (e["ts"], e["args"].get("seq", 0)))
    trace_events = _track_metadata(trace_events) + trace_events
    other = {
        "schema": SCHEMA,
        "event_counts": dict(tracer.counts),
        "trap_causes": dict(tracer.trap_causes),
        "total_events": tracer.total_events,
        "dropped": tracer.dropped,
        "gauges": {**tracer.metrics.gauges, **ratio_gauges(tracer)},
        "metrics": tracer.metrics.snapshot(),
        "quarantine_dumps": [
            {"reason": reason,
             "events": [list(event.to_tuple()) for event in events]}
            for reason, events in tracer.quarantine_dumps
        ],
    }
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": other,
    }


def dump_trace(tracer, path) -> dict:
    """Write the Chrome trace JSON to ``path``; returns the document."""
    doc = to_chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, default=str)
        handle.write("\n")
    return doc


def load_trace(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def cause_counts(doc: dict) -> dict:
    """Per-cause trap counts derived from the events themselves.

    Each recorded trap appears exactly once — as an ``X`` span (paired
    entry/exit) or a ``trap-entry`` instant (no monitor exit, e.g. a
    trap delegated straight to S-mode) — so this equals the run's
    ``TrapStats.trap_counts`` whenever the ring did not drop events.
    """
    counts: Counter[str] = Counter()
    for event in doc.get("traceEvents", ()):
        if event.get("cat") in ("trap", "trap-entry"):
            counts[event["name"]] += 1
    return dict(counts)


def validate_chrome_trace(doc) -> list[str]:
    """Validate a trace document; returns a list of problems (empty = ok)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        errors.append("traceEvents missing or not a list")
        events = []
    other = doc.get("otherData")
    if not isinstance(other, dict):
        errors.append("otherData missing or not an object")
        other = {}
    elif other.get("schema") != SCHEMA:
        errors.append(
            f"otherData.schema is {other.get('schema')!r}, expected {SCHEMA!r}"
        )
    for field in ("event_counts", "trap_causes"):
        table = other.get(field)
        if not isinstance(table, dict) or not all(
            isinstance(k, str) and isinstance(v, int)
            for k, v in table.items()
        ):
            errors.append(f"otherData.{field} must map names to integers")
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            errors.append(f"{where} is not an object")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: name must be a non-empty string")
        if event.get("ph") not in ("X", "i", "M"):
            errors.append(f"{where}: ph must be 'X', 'i', or 'M'")
        if not isinstance(event.get("ts"), (int, float)) or event["ts"] < 0:
            errors.append(f"{where}: ts must be a non-negative number")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                errors.append(f"{where}: {field} must be an integer")
        if not isinstance(event.get("args"), dict):
            errors.append(f"{where}: args must be an object")
        if event.get("ph") == "X":
            if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
                errors.append(f"{where}: X event needs a non-negative dur")
        if event.get("ph") == "i" and event.get("s") not in ("t", "p", "g"):
            errors.append(f"{where}: instant event needs scope s in t/p/g")
        if event.get("ph") == "M":
            if event.get("name") not in _METADATA_NAMES:
                errors.append(
                    f"{where}: metadata event name must be one of "
                    f"{_METADATA_NAMES}"
                )
            args = event.get("args")
            if isinstance(args, dict) and "name" not in args and \
                    "sort_index" not in args:
                errors.append(
                    f"{where}: metadata event needs args.name or "
                    f"args.sort_index"
                )
        if errors and len(errors) > 20:
            errors.append("... (truncated)")
            break
    # Cross-check: with no ring drops, the per-cause event counts must
    # equal the cumulative trap counters recorded in the metadata.
    if not errors and other.get("dropped") == 0:
        derived = cause_counts(doc)
        declared = other.get("trap_causes", {})
        if derived != declared:
            errors.append(
                f"per-cause event counts {derived} != trap counters {declared}"
            )
    return errors
