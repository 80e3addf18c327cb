"""Trap and world-switch statistics collected by the machine.

These counters drive most of the paper's evaluation: Figure 3 (trap-cause
distribution over time), the world-switch frequencies quoted in §8.3, and
the per-benchmark trap rates of Figures 10-13.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter, defaultdict
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


class TrapStats:
    """Event log plus aggregate counters."""

    def __init__(self, keep_events: bool = True):
        self.keep_events = keep_events
        self.events: list[TrapEvent] = []
        self.trap_counts: Counter[str] = Counter()
        self.handler_counts: Counter[str] = Counter()
        self.world_switches = 0
        self.firmware_emulations = 0
        self.fastpath_hits = 0
        self.total_traps = 0
        #: Recovery decisions (recoveries/retries/quarantines), counted
        #: explicitly: ``annotate_last`` moves counts when a trap is
        #: re-annotated, so handler counts cannot double as recovery
        #: counts (several recoveries may share one trap event).
        self.recovery_counts: Counter[str] = Counter()
        #: Per-hart recovery decisions; always sums to recovery_counts.
        self.recovery_counts_by_hart: dict[int, Counter] = defaultdict(Counter)
        self._last: Optional[TrapEvent] = None
        self._last_by_hart: dict[int, TrapEvent] = {}
        self._injected_by_hart: dict[int, TrapEvent] = {}

    def record_trap(self, hart, cause, is_interrupt, from_mode, mtime) -> TrapEvent:
        event = TrapEvent(hart, cause, is_interrupt, from_mode, mtime)
        self.total_traps += 1
        self.trap_counts[cause_name(cause, is_interrupt)] += 1
        if self.keep_events:
            self.events.append(event)
        self._last = event
        self._last_by_hart[hart] = event
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
            event = self._last
        elif injected and hart in self._injected_by_hart:
            event = self._injected_by_hart[hart]
        else:
            event = self._last_by_hart.get(hart)
        if event is None:
            return
        if event.handler != "unclassified":
            previous = event.handler
            self.handler_counts[previous] -= 1
            if self.handler_counts[previous] <= 0:
                del self.handler_counts[previous]
        self.handler_counts[handler] += 1
        event.handler = handler
        if detail:
            event.detail = detail

    def note_world_switch(self) -> None:
        self.world_switches += 1

    def note_firmware_emulation(self) -> None:
        self.firmware_emulations += 1

    def note_fastpath(self) -> None:
        self.fastpath_hits += 1

    def note_recovery(self, kind: str, hart: Optional[int] = None) -> None:
        """Count one watchdog recovery decision (first-class, not moved).

        ``hart`` keys the per-hart view; callers that cannot name a hart
        still contribute to the aggregate only.
        """
        self.recovery_counts[kind] += 1
        if hart is not None:
            self.recovery_counts_by_hart[hart][kind] += 1

    @property
    def last_event(self) -> Optional[TrapEvent]:
        """The most recently recorded trap (also kept when events aren't)."""
        return self._last

    # -- state protocol (checkpoints) -------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "events": [dataclasses.replace(event) for event in self.events],
            "trap_counts": Counter(self.trap_counts),
            "handler_counts": Counter(self.handler_counts),
            "world_switches": self.world_switches,
            "firmware_emulations": self.firmware_emulations,
            "fastpath_hits": self.fastpath_hits,
            "total_traps": self.total_traps,
            "recovery_counts": Counter(self.recovery_counts),
            "recovery_counts_by_hart": {
                hart: Counter(counts)
                for hart, counts in self.recovery_counts_by_hart.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self.events[:] = [dataclasses.replace(event)
                          for event in state["events"]]
        self.trap_counts = Counter(state["trap_counts"])
        self.handler_counts = Counter(state["handler_counts"])
        self.world_switches = state["world_switches"]
        self.firmware_emulations = state["firmware_emulations"]
        self.fastpath_hits = state["fastpath_hits"]
        self.total_traps = state["total_traps"]
        # Unlike the epoch rewind, a restore resets recovery counts too: a
        # warm-started cell must not inherit another cell's decisions.
        self.recovery_counts = Counter(state["recovery_counts"])
        self.recovery_counts_by_hart = defaultdict(Counter, {
            hart: Counter(counts)
            for hart, counts in state["recovery_counts_by_hart"].items()
        })
        self._relink_last()

    def _relink_last(self) -> None:
        """Re-derive the last-trap pointers, which would otherwise dangle."""
        self._last = self.events[-1] if self.events else None
        self._last_by_hart = {}
        self._injected_by_hart = {}
        for event in self.events:
            self._last_by_hart[event.hart] = event

    # -- epochs (watchdog restore / checkpoint rewind) --------------------

    def mark_epoch(self) -> dict:
        """Freeze the counter state at a restore point.

        The watchdog marks an epoch when it arms an activation; if the
        activation fails and its architectural state is rolled back,
        :meth:`rewind_to_epoch` rolls the *metrics* back too — otherwise
        every retried activation double-counts its traps and the reported
        histograms describe executions that were abandoned.
        """
        return {
            "events_len": len(self.events),
            "trap_counts": dict(self.trap_counts),
            "handler_counts": dict(self.handler_counts),
            "world_switches": self.world_switches,
            "firmware_emulations": self.firmware_emulations,
            "fastpath_hits": self.fastpath_hits,
            "total_traps": self.total_traps,
        }

    def rewind_to_epoch(self, epoch: dict) -> None:
        """Truncate events and restore counters to a marked epoch.

        ``recovery_counts`` is deliberately *not* rewound: recovery
        decisions are facts about the run (they happened, and they are
        counted before the rollback), not state of the abandoned
        activation.
        """
        del self.events[epoch["events_len"]:]
        self.trap_counts = Counter(epoch["trap_counts"])
        self.handler_counts = Counter(epoch["handler_counts"])
        self.world_switches = epoch["world_switches"]
        self.firmware_emulations = epoch["firmware_emulations"]
        self.fastpath_hits = epoch["fastpath_hits"]
        self.total_traps = epoch["total_traps"]
        # annotate_last on a missing event is a no-op.
        self._relink_last()

    # -- analysis helpers ------------------------------------------------

    def events_by_window(self, window_mtime: int) -> dict[int, Counter]:
        """Bucket event causes into fixed-duration windows (Figure 3).

        Returns a sparse mapping from window index (``mtime //
        window_mtime``) to a Counter of cause names; windows with no
        events are absent.  A dense list would allocate one bucket per
        elapsed window, which for a small window on a long run means
        millions of empty Counters.
        """
        buckets: dict[int, Counter] = {}
        for event in self.events:
            bucket = buckets.setdefault(event.mtime // window_mtime, Counter())
            bucket[cause_name(event.cause, event.is_interrupt)] += 1
        return buckets

    def detail_counts(self) -> Counter:
        """Counts by handler detail string (e.g. SBI call names)."""
        counts: Counter[str] = Counter()
        for event in self.events:
            if event.detail:
                counts[event.detail] += 1
        return counts

    def reset(self) -> None:
        self.events.clear()
        self.trap_counts.clear()
        self.handler_counts.clear()
        self.world_switches = 0
        self.firmware_emulations = 0
        self.fastpath_hits = 0
        self.total_traps = 0
        self.recovery_counts.clear()
        self.recovery_counts_by_hart.clear()
        self._last = None
        self._last_by_hart.clear()
        self._injected_by_hart.clear()
