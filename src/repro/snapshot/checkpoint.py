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

import hashlib
import json
from collections import Counter
from typing import Optional

from repro.core.vcpu import World
from repro.hart.program import GuestProgram
from repro.hart.stats import TrapEvent
from repro.isa import constants as c
from repro.statecopy import copy_state

SNAPSHOT_SCHEMA = "repro-snapshot-v1"

#: RAM page granularity of the delta encoding (mirrors ``hart.memory``).
PAGE_SIZE = 4096


class SnapshotError(Exception):
    """Capture or restore cannot proceed (non-quiescent, wrong machine…)."""


# ----------------------------------------------------------------------
# Tagged JSON encoding
# ----------------------------------------------------------------------

def _is_plain_dict(value: dict) -> bool:
    return all(isinstance(k, str) and not k.startswith("~") for k in value)


def _to_jsonable(value):
    """Encode a state value as pure JSON with ``{"~tag": ...}`` wrappers."""
    # PrivilegeLevel is an IntEnum: test it before the int fast path.
    if isinstance(value, c.PrivilegeLevel):
        return {"~priv": value.name}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, World):
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
            return World[payload]
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

def _check_quiescent(machine, action: str) -> None:
    if not machine.quiescent:
        raise SnapshotError(
            f"machine is not quiescent: cannot {action} while guest frames "
            "are suspended (only at top-level dispatch boundaries)")
    if machine.scheduler is not None:
        raise SnapshotError("SMP scheduler runs are not checkpointable")


def capture(machine, phase: Optional[str] = None) -> Checkpoint:
    """Capture the machine at a quiescent point.

    Raises :class:`SnapshotError` when guest frames are suspended on the
    Python stack (mid-trap) or an SMP scheduler is active — at such
    moments the architectural state alone does not determine the future,
    so a checkpoint would silently drop the continuation.
    """
    _check_quiescent(machine, "capture")
    monitor = machine.monitor
    tracer = machine.tracer
    coverage = machine.coverage
    state: dict = {
        "schema": SNAPSHOT_SCHEMA,
        "platform": machine.config.name,
        "num_harts": machine.config.num_harts,
        "phase": phase,
        "machine": machine.snapshot_state(),
        "harts": [hart.snapshot_state() for hart in machine.harts],
        "devices": {
            "clint": machine.clint.snapshot_state(),
            "plic": machine.plic.snapshot_state(),
            "uart": machine.uart.snapshot_state(),
        },
        "programs": {
            owner.name: owner.snapshot_state()
            for owner in machine.owners() if isinstance(owner, GuestProgram)
        },
        "stats": machine.stats.snapshot_state(),
        "monitor": None if monitor is None else monitor.snapshot_state(),
        "epochs": {
            "trace": None if tracer is None else tracer.mark_epoch(),
            "coverage": None if coverage is None else {
                "records": coverage.records,
                "digest": coverage.digest(),
            },
            "perf": {"dispatches": machine.dispatches},
        },
    }
    return Checkpoint(state=state, pages=machine.ram.snapshot_pages())


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------

def _check_shape(machine, state: dict) -> None:
    """Reject a checkpoint the machine cannot faithfully hold, before any
    of the machine is overwritten."""
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
    _check_quiescent(machine, "restore")
    monitor = machine.monitor
    monitor_state = state["monitor"]
    if (monitor is None) != (monitor_state is None):
        raise SnapshotError("checkpoint and machine disagree on the monitor")
    if monitor is None:
        return
    if (monitor.watchdog is None) != (monitor_state["watchdog"] is None):
        raise SnapshotError("checkpoint and machine disagree on the watchdog")
    # A policy's fields name it: grafting one policy's state onto another
    # would give a digest that claims the wrong isolation.  (``init``
    # binds wiring only, so it leaves the target's field names as they are.)
    saved = sorted(monitor_state["policy"])
    target = sorted(monitor.policy.snapshot_state())
    if saved != target:
        raise SnapshotError(f"checkpoint and machine disagree on the policy "
                            f"module: fields {saved} vs {target}")


def restore(machine, checkpoint: Checkpoint) -> None:
    """Restore a machine to a captured checkpoint.

    The machine must be *shape-compatible* (same platform, hart count,
    monitor, watchdog and policy module) and quiescent.  RAM pages are
    installed by reference and re-frozen, so the same checkpoint can seed
    any number of restores; everything else is deep-copied in.
    """
    state = checkpoint.state
    _check_shape(machine, state)
    programs = {owner.name: owner for owner in machine.owners()
                if isinstance(owner, GuestProgram)}
    for name in state["programs"]:
        if name not in programs:
            raise SnapshotError(f"checkpoint names unknown program {name!r}")

    machine.restore_state(state["machine"])
    for hart, hart_state in zip(machine.harts, state["harts"]):
        hart.restore_state(hart_state)
    devices = state["devices"]
    machine.clint.restore_state(devices["clint"])
    machine.plic.restore_state(devices["plic"])
    machine.uart.restore_state(devices["uart"])
    for name, program_state in state["programs"].items():
        programs[name].restore_state(copy_state(program_state))
    monitor = machine.monitor
    if monitor is not None:
        monitor.restore_state(state["monitor"])
    machine.stats.restore_state(state["stats"])
    machine.ram.restore_pages(checkpoint.pages)

    # Per-run wiring is reset, not restored: the consumer re-arms its own
    # injector/tracer/coverage (and each context's CSR write hook) after
    # the restore.
    machine.install_fault_injector(None)
    machine.wall_deadline = None
    if monitor is not None:
        for vctx in monitor.vctx:
            vctx.csr_write_hook = None

    trace_epoch = state["epochs"]["trace"]
    if machine.tracer is not None and trace_epoch is not None:
        machine.tracer.rewind_to_epoch(trace_epoch)
