"""Typed, versioned checkpoints of the whole simulated machine.

A :class:`Checkpoint` captures everything a run's future depends on —
hart register files and CSRs, the monitor's :class:`VirtContext` and
device shadows, physical device state, guest-program model state,
physical memory as copy-on-write page deltas, and the trap/trace/perf
counters — at a *quiescent point*: a moment when the Python call stack
holds no suspended guest frames, so the architectural state alone
determines the future (``Machine.boot_to`` stops at exactly such
points).

Two representations coexist:

* the **in-memory** form (:attr:`Checkpoint.state` + :attr:`Checkpoint.pages`)
  holds live Python values (enums, Counters, bytearrays) and shares RAM
  pages with the machine copy-on-write, so capture is cheap and restore
  is exact;
* the **document** form (:meth:`Checkpoint.doc`) is pure tagged JSON —
  every non-JSON value is wrapped in a one-key ``{"~tag": ...}`` object —
  which serializes, round-trips through :meth:`Checkpoint.from_doc`, and
  canonicalizes: :meth:`Checkpoint.digest` hashes the sorted-key JSON
  encoding, so the digest is timing-free and byte-identical across
  worker counts and processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter, defaultdict
from typing import Optional

from repro.hart.program import GuestProgram
from repro.hart.stats import TrapEvent
from repro.isa import constants as c

SNAPSHOT_SCHEMA = "repro-snapshot-v1"

#: RAM page granularity of the delta encoding (mirrors ``hart.memory``).
PAGE_SIZE = 4096


class SnapshotError(Exception):
    """Capture or restore cannot proceed (non-quiescent, wrong machine…)."""


# ----------------------------------------------------------------------
# Deep copy of in-memory state values
# ----------------------------------------------------------------------

#: Exact types that are immutable scalars: returned as they are.
_SCALARS = frozenset({int, str, bool, float, type(None)})


def _copy(value):
    """Deep-copy a state value so checkpoints never alias live state.

    Handles exactly the types monitor state is made of; unknown types are
    assumed to be immutable scalars (ints, strs, enums, None) and pass
    through.
    """
    cls = type(value)
    if cls in _SCALARS:
        return value
    if cls is list:  # register files: lists of ints
        return [v if type(v) in _SCALARS else _copy(v) for v in value]
    if isinstance(value, TrapEvent):
        return dataclasses.replace(value)
    if isinstance(value, Counter):
        return Counter(value)
    if isinstance(value, defaultdict):
        return defaultdict(value.default_factory,
                           {k: _copy(v) for k, v in value.items()})
    if isinstance(value, dict):
        return {k: _copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_copy(v) for v in value)
    if isinstance(value, (bytes, bytearray)):
        return bytearray(value)
    if isinstance(value, set):
        return set(value)
    if hasattr(value, "clone"):  # LatencyHistogram
        return value.clone()
    return value


# ----------------------------------------------------------------------
# Tagged JSON encoding
# ----------------------------------------------------------------------

def _world_enum():
    from repro.core.vcpu import World  # deferred: core imports this module

    return World


def _is_plain_dict(value: dict) -> bool:
    return all(isinstance(k, str) and not k.startswith("~") for k in value)


def _to_jsonable(value):
    """Encode a state value as pure JSON with ``{"~tag": ...}`` wrappers."""
    # PrivilegeLevel is an IntEnum: test it before the int fast path.
    if isinstance(value, c.PrivilegeLevel):
        return {"~priv": value.name}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, _world_enum()):
        return {"~world": value.name}
    if isinstance(value, TrapEvent):
        return {"~trap": [value.hart, value.cause, value.is_interrupt,
                          _to_jsonable(value.from_mode), value.mtime,
                          value.handler, value.detail]}
    if isinstance(value, (bytes, bytearray)):
        return {"~hex": bytes(value).hex()}
    if isinstance(value, frozenset):
        items = [_to_jsonable(v) for v in value]
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"~fset": items}
    if isinstance(value, tuple):
        return {"~tuple": [_to_jsonable(v) for v in value]}
    if isinstance(value, list):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, dict):
        if _is_plain_dict(value):
            return {k: _to_jsonable(v) for k, v in value.items()}
        pairs = [[_to_jsonable(k), _to_jsonable(v)] for k, v in value.items()]
        # Canonical order: a Counter's insertion order reflects execution
        # history, which must not leak into the digest.
        pairs.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"~dmap": pairs}
    if hasattr(value, "buckets") and hasattr(value, "clone"):
        return {"~hist": {
            "count": value.count,
            "total": value.total,
            "min": value.min,
            "max": value.max,
            "buckets": sorted(value.buckets.items()),
        }}
    raise SnapshotError(f"cannot serialize {type(value).__name__} in checkpoint")


def _from_jsonable(value):
    """Invert :func:`_to_jsonable`."""
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    if not isinstance(value, dict):
        return value
    if len(value) == 1:
        (tag, payload), = value.items()
        if tag == "~priv":
            return c.PrivilegeLevel[payload]
        if tag == "~world":
            return _world_enum()[payload]
        if tag == "~trap":
            hart, cause, is_interrupt, from_mode, mtime, handler, detail = payload
            return TrapEvent(hart, cause, is_interrupt,
                             _from_jsonable(from_mode), mtime, handler, detail)
        if tag == "~hex":
            return bytearray.fromhex(payload)
        if tag == "~fset":
            return frozenset(_from_jsonable(v) for v in payload)
        if tag == "~tuple":
            return tuple(_from_jsonable(v) for v in payload)
        if tag == "~dmap":
            return {_from_jsonable(k): _from_jsonable(v) for k, v in payload}
        if tag == "~hist":
            from repro.trace.metrics import LatencyHistogram

            histogram = LatencyHistogram()
            histogram.count = payload["count"]
            histogram.total = payload["total"]
            histogram.min = payload["min"]
            histogram.max = payload["max"]
            histogram.buckets = Counter(dict(
                (k, v) for k, v in payload["buckets"]))
            return histogram
    return {k: _from_jsonable(v) for k, v in value.items()}


# ----------------------------------------------------------------------
# The checkpoint object
# ----------------------------------------------------------------------

class Checkpoint:
    """One captured machine state: typed fields plus RAM page deltas."""

    def __init__(self, state: dict, pages: dict[int, bytearray]):
        self.state = state
        self.pages = pages

    @property
    def platform(self) -> str:
        return self.state["platform"]

    @property
    def phase(self) -> Optional[str]:
        return self.state.get("phase")

    def doc(self) -> dict:
        """The pure-JSON document form (schema ``repro-snapshot-v1``)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "state": _to_jsonable(self.state),
            "ram": {
                "page_size": PAGE_SIZE,
                "pages": {str(number): bytes(page).hex()
                          for number, page in sorted(self.pages.items())},
            },
        }

    def digest(self) -> str:
        """Canonical content digest: stable across processes and workers."""
        encoded = json.dumps(self.doc(), sort_keys=True,
                             separators=(",", ":")).encode()
        return hashlib.sha256(encoded).hexdigest()

    @classmethod
    def from_doc(cls, doc: dict) -> "Checkpoint":
        if doc.get("schema") != SNAPSHOT_SCHEMA:
            raise SnapshotError(f"not a {SNAPSHOT_SCHEMA} document")
        if doc["ram"]["page_size"] != PAGE_SIZE:
            raise SnapshotError("page size mismatch")
        pages = {int(number): bytearray.fromhex(data)
                 for number, data in doc["ram"]["pages"].items()}
        return cls(state=_from_jsonable(doc["state"]), pages=pages)


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------

def _find_monitor(machine):
    for _, owner in machine._regions:
        if hasattr(owner, "vctx") and hasattr(owner, "vclint"):
            return owner
    return None


#: VirtContext attributes that are wiring, not state (mirrors the
#: watchdog activation-snapshot contract pinned by the round-trip tests).
VCTX_NON_STATE = frozenset({"platform", "hartid", "csr_write_hook"})


def _vctx_state(vctx) -> dict:
    return {name: _copy(value) for name, value in vctx.__dict__.items()
            if name not in VCTX_NON_STATE}


def _restore_vctx(vctx, state: dict) -> None:
    for name, value in state.items():
        setattr(vctx, name, _copy(value))
    # Wiring is per-run, not per-checkpoint: a fresh consumer (e.g. a
    # warm-started chaos cell) re-arms its own injector hooks.
    vctx.csr_write_hook = None


#: Policy-module attributes that are wiring, not state (bound by
#: ``PolicyModule.init``).
POLICY_NON_STATE = frozenset({"miralis", "machine"})


def _policy_state(policy) -> dict:
    return {name: _copy(value) for name, value in policy.__dict__.items()
            if name not in POLICY_NON_STATE}


def _restore_policy(policy, monitor, machine, state: dict) -> None:
    # Re-bind the wiring first: a warm-started cell's policy object has
    # never seen ``init`` (the checkpoint says the boot already ran it),
    # and init also re-creates the per-hart slots the saved state
    # overwrites below.
    policy.init(monitor, machine)
    for name, value in state.items():
        setattr(policy, name, _copy(value))


def _stats_state(stats) -> dict:
    return {
        "events": [_copy(event) for event in stats.events],
        "trap_counts": Counter(stats.trap_counts),
        "handler_counts": Counter(stats.handler_counts),
        "world_switches": stats.world_switches,
        "firmware_emulations": stats.firmware_emulations,
        "fastpath_hits": stats.fastpath_hits,
        "total_traps": stats.total_traps,
        "recovery_counts": Counter(stats.recovery_counts),
        "recovery_counts_by_hart": {
            hart: Counter(counts)
            for hart, counts in stats.recovery_counts_by_hart.items()
        },
    }


def _restore_stats(stats, state: dict) -> None:
    stats.events[:] = [_copy(event) for event in state["events"]]
    stats.trap_counts = Counter(state["trap_counts"])
    stats.handler_counts = Counter(state["handler_counts"])
    stats.world_switches = state["world_switches"]
    stats.firmware_emulations = state["firmware_emulations"]
    stats.fastpath_hits = state["fastpath_hits"]
    stats.total_traps = state["total_traps"]
    # Unlike the watchdog's epoch rewind, a full checkpoint restore *does*
    # reset recovery counts: the restored machine is the machine as it was,
    # recoveries included — a warm-started cell must not inherit another
    # cell's decisions.
    stats.recovery_counts = Counter(state["recovery_counts"])
    stats.recovery_counts_by_hart = defaultdict(Counter, {
        hart: Counter(counts)
        for hart, counts in state["recovery_counts_by_hart"].items()
    })
    stats._last = stats.events[-1] if stats.events else None
    stats._last_by_hart = {}
    for event in stats.events:
        stats._last_by_hart[event.hart] = event
    stats._injected_by_hart = {}


def _watchdog_state(watchdog) -> dict:
    return {
        "quarantined": list(watchdog.quarantined),
        "consecutive_failures": list(watchdog.consecutive_failures),
        "os_entered": list(watchdog.os_entered),
        "counters": Counter(watchdog.counters),
        "hart_counters": [Counter(per_hart)
                          for per_hart in watchdog.hart_counters],
        "events": [tuple(event) for event in watchdog.events],
        "quarantine_records": _copy(watchdog.quarantine_records),
        "vm_traps": list(watchdog._vm_traps),
        "inject_depth": list(watchdog._inject_depth),
        "last_fault_tval": list(watchdog._last_fault_tval),
        "fault_repeats": list(watchdog._fault_repeats),
        "violations": list(watchdog._violations),
        "snapshots": _copy(watchdog._snapshots),
        "pending": _copy(watchdog._pending),
    }


def _restore_watchdog(watchdog, state: dict) -> None:
    watchdog.quarantined[:] = state["quarantined"]
    watchdog.consecutive_failures[:] = state["consecutive_failures"]
    watchdog.os_entered[:] = state["os_entered"]
    watchdog.counters = Counter(state["counters"])
    watchdog.hart_counters = [Counter(per_hart)
                              for per_hart in state["hart_counters"]]
    watchdog.events[:] = [tuple(event) for event in state["events"]]
    watchdog.quarantine_records[:] = _copy(state["quarantine_records"])
    watchdog._vm_traps[:] = state["vm_traps"]
    watchdog._inject_depth[:] = state["inject_depth"]
    watchdog._last_fault_tval[:] = state["last_fault_tval"]
    watchdog._fault_repeats[:] = state["fault_repeats"]
    watchdog._violations[:] = state["violations"]
    watchdog._snapshots[:] = _copy(state["snapshots"])
    watchdog._pending[:] = [None if entry is None else tuple(entry)
                            for entry in state["pending"]]


def capture(machine, phase: Optional[str] = None) -> Checkpoint:
    """Capture the machine at a quiescent point.

    Raises :class:`SnapshotError` when guest frames are suspended on the
    Python stack (mid-trap) or an SMP scheduler is active — at such
    moments the architectural state alone does not determine the future,
    so a checkpoint would silently drop the continuation.
    """
    if machine._service_depth != 0 or any(
            stack for stack in machine._resume_stacks):
        raise SnapshotError(
            "machine is not quiescent: guest frames are suspended "
            "(capture only at top-level dispatch boundaries)")
    if machine.scheduler is not None:
        raise SnapshotError("SMP scheduler runs are not checkpointable")

    clint = machine.clint
    plic = machine.plic
    state: dict = {
        "schema": SNAPSHOT_SCHEMA,
        "platform": machine.config.name,
        "num_harts": machine.config.num_harts,
        "phase": phase,
        "machine": {
            "cycles": machine.cycles,
            "halted": machine.halted,
            "halt_reason": machine.halt_reason,
            "dispatches": machine._dispatches,
        },
        "harts": [
            {
                "cycles": hart.cycles,
                "instret": hart.instret,
                "parked_pc": hart.parked_pc,
                "state": hart.state.snapshot(),
            }
            for hart in machine.harts
        ],
        "devices": {
            "clint": {
                "msip": list(clint.msip),
                "mtimecmp": list(clint.mtimecmp),
                "mtip_level": list(clint._mtip_level),
            },
            "plic": {
                "priority": list(plic.priority),
                "pending": plic.pending,
                "enable": list(plic.enable),
                "threshold": list(plic.threshold),
                "claimed": list(plic.claimed),
            },
            "uart": {"output": bytearray(machine.uart.output)},
        },
        "programs": {
            owner.name: owner.snapshot_state()
            for _, owner in machine._regions
            if isinstance(owner, GuestProgram)
        },
        "stats": _stats_state(machine.stats),
    }

    monitor = _find_monitor(machine)
    if monitor is None:
        state["monitor"] = None
    else:
        vclint = monitor.vclint
        state["monitor"] = {
            "world": [world.name for world in monitor.world],
            "vctx": [_vctx_state(vctx) for vctx in monitor.vctx],
            "vclint": {
                "mtimecmp": list(vclint.mtimecmp),
                "monitor_mtimecmp": list(vclint.monitor_mtimecmp),
                "msip": list(vclint.msip),
                "accesses": vclint.accesses,
            },
            "offload": {
                "hits": Counter(monitor.offload.hits),
                "timer_armed": list(monitor.offload.timer_armed),
            },
            "emulation_count": monitor.emulation_count,
            "violations": list(monitor.violations),
            "booted": list(monitor._booted),
            "policy_initialized": monitor._policy_initialized,
            "policy": _policy_state(monitor.policy),
            "watchdog": (None if monitor.watchdog is None
                         else _watchdog_state(monitor.watchdog)),
        }

    tracer = machine.tracer
    coverage = machine.coverage
    state["epochs"] = {
        "trace": None if tracer is None else tracer.mark_epoch(),
        "coverage": None if coverage is None else {
            "records": coverage.records,
            "digest": coverage.digest(),
        },
        "perf": {"dispatches": machine._dispatches},
    }

    pages = machine.ram.snapshot_pages()
    return Checkpoint(state=state, pages=pages)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------

def restore(machine, checkpoint: Checkpoint) -> None:
    """Restore a machine to a captured checkpoint.

    The machine must be *shape-compatible* (same platform and hart
    count) and quiescent.  RAM pages are installed by reference and
    re-frozen, so the same checkpoint can seed any number of restores;
    everything else is deep-copied in.
    """
    state = checkpoint.state
    if state.get("schema") != SNAPSHOT_SCHEMA:
        raise SnapshotError("not a repro-snapshot-v1 checkpoint")
    if state["platform"] != machine.config.name:
        raise SnapshotError(
            f"checkpoint is for platform {state['platform']!r}, "
            f"machine is {machine.config.name!r}")
    if state["num_harts"] != machine.config.num_harts:
        raise SnapshotError(
            f"checkpoint has {state['num_harts']} harts, "
            f"machine has {machine.config.num_harts}")
    if machine._service_depth != 0 or any(
            stack for stack in machine._resume_stacks):
        raise SnapshotError("machine is not quiescent: cannot restore "
                            "over suspended guest frames")
    if machine.scheduler is not None:
        raise SnapshotError("SMP scheduler runs are not checkpointable")

    machine.cycles = state["machine"]["cycles"]
    machine.halted = state["machine"]["halted"]
    machine.halt_reason = state["machine"]["halt_reason"]
    machine._dispatches = state["machine"]["dispatches"]

    for hart, hart_state in zip(machine.harts, state["harts"]):
        hart.cycles = hart_state["cycles"]
        hart.instret = hart_state["instret"]
        hart.parked_pc = hart_state["parked_pc"]
        hart.state.restore(hart_state["state"])

    devices = state["devices"]
    clint = machine.clint
    clint.msip[:] = devices["clint"]["msip"]
    clint.mtimecmp[:] = devices["clint"]["mtimecmp"]
    clint._mtip_level[:] = devices["clint"]["mtip_level"]
    plic = machine.plic
    plic.priority[:] = devices["plic"]["priority"]
    plic.pending = devices["plic"]["pending"]
    plic.enable[:] = devices["plic"]["enable"]
    plic.threshold[:] = devices["plic"]["threshold"]
    plic.claimed[:] = devices["plic"]["claimed"]
    machine.uart.output[:] = devices["uart"]["output"]

    programs = {owner.name: owner for _, owner in machine._regions
                if isinstance(owner, GuestProgram)}
    for name, program_state in state["programs"].items():
        program = programs.get(name)
        if program is None:
            raise SnapshotError(f"checkpoint names unknown program {name!r}")
        program.restore_state(_copy(program_state))

    monitor = _find_monitor(machine)
    monitor_state = state["monitor"]
    if (monitor is None) != (monitor_state is None):
        raise SnapshotError("checkpoint and machine disagree on the monitor")
    if monitor is not None:
        World = _world_enum()
        # In-place: machine.world_view aliases this list.
        monitor.world[:] = [World[name] for name in monitor_state["world"]]
        for vctx, vctx_state in zip(monitor.vctx, monitor_state["vctx"]):
            _restore_vctx(vctx, vctx_state)
        vclint = monitor.vclint
        vclint_state = monitor_state["vclint"]
        # Assign the shadows directly — the physical CLINT was restored
        # above, so reprogramming the timer would be redundant (and must
        # not happen before the clint lists are consistent).
        vclint.mtimecmp[:] = vclint_state["mtimecmp"]
        vclint.monitor_mtimecmp[:] = vclint_state["monitor_mtimecmp"]
        vclint.msip[:] = vclint_state["msip"]
        vclint.accesses = vclint_state["accesses"]
        offload_state = monitor_state["offload"]
        monitor.offload.hits = Counter(offload_state["hits"])
        monitor.offload.timer_armed[:] = offload_state["timer_armed"]
        monitor.emulation_count = monitor_state["emulation_count"]
        monitor.violations[:] = monitor_state["violations"]
        monitor._booted[:] = monitor_state["booted"]
        monitor._policy_initialized = monitor_state["policy_initialized"]
        if monitor._policy_initialized:
            _restore_policy(monitor.policy, monitor, machine,
                            monitor_state["policy"])
        if monitor.watchdog is not None and monitor_state["watchdog"] is not None:
            _restore_watchdog(monitor.watchdog, monitor_state["watchdog"])

    _restore_stats(machine.stats, state["stats"])
    machine.ram.restore_pages(checkpoint.pages)

    # Per-run wiring is reset, not restored: the consumer re-arms its own
    # injector/tracer/coverage after the restore.
    machine.install_fault_injector(None)
    machine.wall_deadline = None

    trace_epoch = state["epochs"]["trace"]
    tracer = machine.tracer
    if (tracer is not None and trace_epoch is not None
            and tracer._seq >= trace_epoch["seq"]):
        tracer.rewind_to_epoch(trace_epoch)
