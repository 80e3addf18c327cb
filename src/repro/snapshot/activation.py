"""Activation snapshots: what a watchdog retry must capture and restore.

A firmware *activation* (boot, or handling one injected trap) can be
abandoned and retried by the watchdog.  Retrying replays the activation
from its start, so everything the activation may have mutated must roll
back with it:

* the hart's :class:`VirtContext` (its ``snapshot_state``, generic over
  every field);
* this hart's virtual-CLINT shadows (a retried activation must not
  inherit a half-programmed virtual timer or a stale self-IPI);
* the firmware region's RAM pages — firmware scratch memory is
  activation state, and before this layer existed, post-snapshot writes
  leaked straight through a restore (the snapshot held no memory at
  all);
* the trap-stats and tracer epochs — an abandoned activation's traps
  must not be double-counted by the retried one.

Recovery *decisions* (``recovery_counts``, watchdog counters, quarantine
dumps) are facts about the run, not activation state, and are never
rolled back.  That is why the stats roll back by epoch, not by their
full ``snapshot_state``: an epoch is a few counters, while a full state
would copy the whole event log at every arm.
"""

from __future__ import annotations


def capture_activation(watchdog, hart, vctx) -> dict:
    """Snapshot one hart's activation state (see module docstring)."""
    machine = watchdog.machine
    region = watchdog.miralis.firmware.region
    tracer = machine.tracer
    return {
        "vctx": vctx.snapshot_state(),
        "vclint": watchdog.miralis.vclint.snapshot_hart(hart.hartid),
        "ram_span": (region.base, region.end),
        "ram": machine.ram.snapshot_pages(region.base, region.end),
        "stats_epoch": machine.stats.mark_epoch(),
        "trace_epoch": None if tracer is None else tracer.mark_epoch(),
    }


def restore_activation(watchdog, hart, vctx, snap: dict) -> None:
    """Roll one hart's activation state back to a captured snapshot."""
    vctx.restore_state(snap["vctx"])
    watchdog.miralis.vclint.restore_hart(hart.hartid, snap["vclint"])
    machine = watchdog.machine
    start, stop = snap["ram_span"]
    machine.ram.restore_pages(snap["ram"], start, stop)
    machine.stats.rewind_to_epoch(snap["stats_epoch"])
    tracer = machine.tracer
    if tracer is not None and snap["trace_epoch"] is not None:
        tracer.rewind_to_epoch(snap["trace_epoch"])
