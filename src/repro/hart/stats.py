"""Trap and world-switch statistics collected by the machine.

These counters drive most of the paper's evaluation: Figure 3 (trap-cause
distribution over time), the world-switch frequencies quoted in §8.3, and
the per-benchmark trap rates of Figures 10-13.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import Counter, deque
from types import SimpleNamespace
from typing import Optional

from repro.isa import constants as c


@dataclasses.dataclass(slots=True)
class TrapEvent:
    """One recorded trap."""

    hart: int
    cause: int
    is_interrupt: bool
    from_mode: Optional[c.PrivilegeLevel]
    mtime: int
    handler: str = "unclassified"
    detail: str = ""


@functools.lru_cache(maxsize=256)
def cause_name(cause: int, is_interrupt: bool) -> str:
    if is_interrupt:
        try:
            return f"irq:{c.InterruptCause(cause).name}"
        except ValueError:
            return f"irq:{cause}"
    try:
        return c.TrapCause(cause).name
    except ValueError:
        return f"exception:{cause}"


@functools.lru_cache(maxsize=1024)
def trap_detail(kind: str, value) -> str:
    """The detail string ``"kind:value"``, built once per distinct pair.

    Handlers annotate nearly every trap with a detail; sharing one string
    per distinct detail saves building it per trap and keeps a long event
    log from holding a copy per event.
    """
    return f"{kind}:{value}"


#: What a :class:`TrapStats` built without a machine reads its sinks from.
_NO_SINKS = SimpleNamespace(tracer=None, coverage=None)

#: Events the trap log holds: the most recent ones, in a fixed ring.  The
#: largest log read in full (the Fig. 3 boot, about 3,100 events) fits
#: with room to spare; at ~128 B per event the ring tops out near 1 MB.
TRAP_LOG_CAPACITY = 8192


class TrapStats:
    """A bounded trap log plus exact aggregate counters.

    ``events`` is a ring of the last :data:`TRAP_LOG_CAPACITY` events, so
    a run's memory stops growing with its length; the counters, ``logged``
    and ``dropped`` stay exact however long the run.  It is the one entry
    point for the trap-path events it counts: each passes them on to the
    machine's tracer and, for a trap, its coverage map.
    """

    def __init__(self, keep_events: bool = True, machine=None):
        self.keep_events = keep_events
        #: Wiring: each event reads ``machine.tracer``/``machine.coverage``.
        self.machine = _NO_SINKS if machine is None else machine
        self.events: deque[TrapEvent] = deque(maxlen=TRAP_LOG_CAPACITY)
        #: Events recorded into the log, net of rewinds: what the log
        #: would hold if it were unbounded.
        self.logged = 0
        self.trap_counts: Counter[str] = Counter()
        self.handler_counts: Counter[str] = Counter()
        self.world_switches = 0
        self.firmware_emulations = 0
        self.fastpath_hits = 0
        self.total_traps = 0
        # Annotation targets.  ``last_event`` is always its hart's entry
        # in ``_last_by_hart``; the ``_seq`` maps give each target's
        # position in the log (``0 .. logged - 1``), which an epoch needs
        # to find it again in a restored ring.
        #: The most recently recorded trap (also kept when events aren't).
        self.last_event: Optional[TrapEvent] = None
        self._last_by_hart: dict[int, TrapEvent] = {}
        self._seq_by_hart: dict[int, Optional[int]] = {}
        self._injected_by_hart: dict[int, TrapEvent] = {}
        self._injected_seq_by_hart: dict[int, Optional[int]] = {}

    def record_trap(self, hart, cause, is_interrupt, from_mode, mtime,
                    pc: int = 0) -> TrapEvent:
        """Record one trap, then pass it to the tracer and coverage map
        (``pc``: the handler-entry pc the coverage edge keys on)."""
        event = TrapEvent(hart, cause, is_interrupt, from_mode, mtime)
        name = cause_name(cause, is_interrupt)
        self.total_traps += 1
        self.trap_counts[name] += 1
        if self.keep_events:
            self._seq_by_hart[hart] = self.logged
            self.events.append(event)
            self.logged += 1
        self.last_event = event
        self._last_by_hart[hart] = event
        machine = self.machine
        tracer = machine.tracer
        if tracer is not None:
            tracer.trap_entry(machine, hart, name, is_interrupt)
        coverage = machine.coverage
        if coverage is not None:
            view = machine.world_view
            coverage.record(hart, cause, is_interrupt, pc,
                            None if view is None else view[hart])
        return event

    def pin_injected(self, hart: int) -> None:
        """Mark this hart's most recent trap as the one delivered to the
        virtual firmware.  Emulating the firmware's handler raises further
        traps on the same hart (every privileged instruction faults into
        the monitor), so by the time the handler classifies its trap, the
        hart's *last* event is one of those emulation traps — the handler
        must annotate the pinned injection instead."""
        event = self._last_by_hart.get(hart)
        if event is not None:
            self._injected_by_hart[hart] = event
            self._injected_seq_by_hart[hart] = self._seq_by_hart.get(hart)

    def annotate_last(self, handler: str, detail: str = "",
                      hart: Optional[int] = None,
                      injected: bool = False) -> None:
        """Record which subsystem handled the most recent trap.

        Each trap is counted under exactly one handler: re-annotating (a
        trap escalated from one subsystem to another, e.g. a fast-path
        miss turning into a world switch) moves the count to the final
        handler.  Without a recorded trap this is a no-op, keeping
        ``sum(handler_counts.values()) <= total_traps`` invariant.

        Pass ``hart`` to annotate that hart's most recent trap.  Firmware
        trap handling spans scheduler slices under SMP, so by the time
        the handler annotates, another hart may have recorded its own
        trap — the machine-global last event would then be the wrong one.

        ``injected=True`` (guest trap handlers) targets the trap the
        monitor delivered to this hart's virtual firmware — see
        ``pin_injected``.  Natively nothing ever pins, and the call falls
        back to the hart's last trap, which *is* the trap being served.
        """
        if hart is None:
            event = self.last_event
        elif injected and hart in self._injected_by_hart:
            event = self._injected_by_hart[hart]
        else:
            event = self._last_by_hart.get(hart)
        if event is None:
            return
        # ``get``, not Counter's Python-level ``__missing__``/``__delitem__``.
        counts = self.handler_counts
        previous = event.handler
        if previous != "unclassified":
            left = counts[previous] - 1
            if left > 0:
                counts[previous] = left
            else:
                counts.pop(previous, None)
        counts[handler] = counts.get(handler, 0) + 1
        event.handler = handler
        if detail:
            event.detail = detail

    def note_world_switch(self, hart: int, direction: str, csr_ops: int,
                          target: Optional[c.PrivilegeLevel] = None) -> None:
        """Count one world switch and trace it (``target``: enter-os only)."""
        self.world_switches += 1
        machine = self.machine
        tracer = machine.tracer
        if tracer is not None:
            if target is None:
                tracer.emit(machine, "world-switch", hart,
                            direction=direction, csr_ops=csr_ops)
            else:
                tracer.emit(machine, "world-switch", hart,
                            direction=direction, target=target.short_name,
                            csr_ops=csr_ops)

    def note_firmware_emulation(self, hart: int, what: str) -> None:
        """Count one firmware instruction emulation (``what``: the
        mnemonic, or ``invalid``), annotate its trap and trace it."""
        self.firmware_emulations += 1
        self.annotate_last("miralis-emulate",
                           detail=trap_detail("emulate", what), hart=hart)
        machine = self.machine
        tracer = machine.tracer
        if tracer is not None:
            tracer.emit(machine, "fw-emulate", hart, what=what)

    def note_fastpath(self, hart: int, name: str) -> None:
        """Count one offload hit, annotate its trap and trace it."""
        self.fastpath_hits += 1
        self.annotate_last("miralis-fastpath",
                           detail=trap_detail("offload", name), hart=hart)
        machine = self.machine
        tracer = machine.tracer
        if tracer is not None:
            tracer.fastpath(machine, hart, name)

    @property
    def dropped(self) -> int:
        """Logged events the ring no longer holds."""
        return self.logged - len(self.events)

    def tail(self, n: int) -> list[TrapEvent]:
        """The last ``n`` logged events still in the ring, oldest first."""
        return list(itertools.islice(reversed(self.events), n))[::-1]

    def _require_full_log(self, reader: str) -> None:
        if self.dropped:
            raise ValueError(
                f"{reader} needs the whole trap log, but the ring dropped "
                f"{self.dropped} of {self.logged} events")

    # -- state protocol (checkpoints) -------------------------------------

    def snapshot_state(self) -> dict:
        state = {
            "events": [dataclasses.replace(event) for event in self.events],
            "trap_counts": Counter(self.trap_counts),
            "handler_counts": Counter(self.handler_counts),
            "world_switches": self.world_switches,
            "firmware_emulations": self.firmware_emulations,
            "fastpath_hits": self.fastpath_hits,
            "total_traps": self.total_traps,
        }
        # Only a wrapped ring needs the count: a run that never wraps keeps
        # the document it had when the log was an unbounded list.
        if self.dropped:
            state["logged"] = self.logged
        return state

    def restore_state(self, state: dict) -> None:
        self.events.clear()
        self.events.extend(dataclasses.replace(event)
                           for event in state["events"])
        self.logged = state.get("logged", len(state["events"]))
        self.trap_counts = Counter(state["trap_counts"])
        self.handler_counts = Counter(state["handler_counts"])
        self.world_switches = state["world_switches"]
        self.firmware_emulations = state["firmware_emulations"]
        self.fastpath_hits = state["fastpath_hits"]
        self.total_traps = state["total_traps"]
        # A document carries no annotation targets: relink each hart's
        # last trap from the ring (a hart with none there gets no target).
        self.last_event = self.events[-1] if self.events else None
        self._last_by_hart = {}
        self._seq_by_hart = {}
        for seq, event in enumerate(self.events, self.dropped):
            self._last_by_hart[event.hart] = event
            self._seq_by_hart[event.hart] = seq
        self._injected_by_hart = {}
        self._injected_seq_by_hart = {}

    # -- epochs (watchdog restore / checkpoint rewind) --------------------

    def mark_epoch(self) -> dict:
        """Freeze the counter state at a restore point.

        The watchdog marks an epoch when it arms an activation; if the
        activation fails and its architectural state is rolled back,
        :meth:`rewind_to_epoch` rolls the *metrics* back too — otherwise
        every retried activation double-counts its traps and the reported
        histograms describe executions that were abandoned.

        The epoch also records the annotation targets and each target's
        ``(handler, detail)``: the abandoned activation may re-annotate
        pre-epoch events (the firmware classifying its injected trap), and
        the rewind must undo that along with the counts.  Each target is
        kept as ``(seq, event, handler, detail)``, O(harts) in all.
        """
        return {
            "last_hart": (None if self.last_event is None
                          else self.last_event.hart),
            "last_by_hart": self._targets(self._last_by_hart,
                                          self._seq_by_hart),
            "injected_by_hart": self._targets(self._injected_by_hart,
                                              self._injected_seq_by_hart),
            "events_len": self.logged,
            "trap_counts": dict(self.trap_counts),
            "handler_counts": dict(self.handler_counts),
            "world_switches": self.world_switches,
            "firmware_emulations": self.firmware_emulations,
            "fastpath_hits": self.fastpath_hits,
            "total_traps": self.total_traps,
        }

    def rewind_to_epoch(self, epoch: dict) -> None:
        """Drop the events logged since a marked epoch and restore counters.

        Events are popped from the right of the ring; if the abandoned
        activation wrapped it, the pre-epoch events it pushed out stay
        dropped.
        """
        for _ in range(min(self.logged - epoch["events_len"],
                           len(self.events))):
            self.events.pop()
        self.logged = epoch["events_len"]
        self.trap_counts = Counter(epoch["trap_counts"])
        self.handler_counts = Counter(epoch["handler_counts"])
        self.world_switches = epoch["world_switches"]
        self.firmware_emulations = epoch["firmware_emulations"]
        self.fastpath_hits = epoch["fastpath_hits"]
        self.total_traps = epoch["total_traps"]
        self._last_by_hart, self._seq_by_hart = self._relink(
            epoch["last_by_hart"])
        self._injected_by_hart, self._injected_seq_by_hart = self._relink(
            epoch["injected_by_hart"])
        self.last_event = self._last_by_hart.get(epoch["last_hart"])

    @staticmethod
    def _targets(events: dict, seqs: dict) -> dict:
        return {hart: (seqs.get(hart), event, event.handler, event.detail)
                for hart, event in events.items()}

    def _relink(self, targets: dict) -> tuple[dict, dict]:
        """Point at an epoch's targets again, with their annotations as
        marked.  A target still in the ring is found by its log position
        (after a checkpoint restore the epoch holds a copy of it); one the
        ring dropped stays a detached event, so annotating it still moves
        the counts exactly."""
        events, seqs = {}, {}
        dropped = self.dropped
        for hart, (seq, event, handler, detail) in targets.items():
            if seq is not None and seq >= dropped:
                event = self.events[seq - dropped]
            seqs[hart] = seq
            event.handler = handler
            event.detail = detail
            events[hart] = event
        return events, seqs

    # -- analysis helpers ------------------------------------------------

    def detail_counts(self) -> Counter:
        """Counts by handler detail string (e.g. SBI call names).

        Raises ``ValueError`` once the ring has dropped events.
        """
        self._require_full_log("detail_counts")
        counts: Counter[str] = Counter()
        for event in self.events:
            if event.detail:
                counts[event.detail] += 1
        return counts

    def reset(self) -> None:
        self.events.clear()
        self.logged = 0
        self.trap_counts.clear()
        self.handler_counts.clear()
        self.world_switches = 0
        self.firmware_emulations = 0
        self.fastpath_hits = 0
        self.total_traps = 0
        self.last_event = None
        self._last_by_hart.clear()
        self._seq_by_hart.clear()
        self._injected_by_hart.clear()
        self._injected_seq_by_hart.clear()
