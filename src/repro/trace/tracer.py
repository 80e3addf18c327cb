"""The event recorder: a bounded ring buffer of typed monitor events.

The four trap-path events ``TrapStats`` counts (trap entry, world switch,
fast-path hit, firmware emulation) reach the tracer through it: the site
makes one ``machine.stats`` call, which counts the event and emits it.
Every other layer emits through the same two-line pattern::

    tracer = self.machine.tracer
    if tracer is not None:
        tracer.emit(self.machine, "vclint", hartid, op=...)

so a disabled tracer (``machine.tracer is None``, the default) costs one
attribute load and one branch on the hot path.

An *enabled* tracer has its own budget (<10% of steps/sec, checked by
the hot-path benchmark), so recording an event does the minimum: it
appends one plain tuple to the ring, whose trap-path records are flat
(the payload follows the stamps).  Everything else is folded from the
ring lazily, in batches, when a reader needs it or before the ring
drops records: each record's sequence number, the per-kind and
per-cause counters, the pairing of each trap exit with its entry (its
latency) and the metrics registry.  Trap cause names arrive from
``TrapStats``, which derives each once for its own counters, and
:class:`TraceEvent` objects are materialized only by
:meth:`Tracer.events` and :meth:`Tracer.tail`.

The ring is bounded (old events are dropped, counted in :attr:`dropped`)
but the per-kind and per-cause counters are cumulative, so aggregate
numbers stay exact even after the buffer wraps on a long run.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.hart.cycles import cycles_to_mtime
from repro.trace.metrics import MetricsRegistry

#: The event kinds the monitor emits, one per instrumented subsystem.
KINDS = (
    "trap-entry",    # hart took a trap (cause, interrupt flag)
    "trap-exit",     # monitor finished handling it (handler, latency)
    "world-switch",  # vM-mode <-> OS transition (direction)
    "fw-emulate",    # one firmware-emulation step (mnemonic)
    "fastpath",      # offload hit (which of the five hot causes)
    "vpmp",          # vPMP reprogramming (world, physical writes)
    "vclint",        # virtual CLINT activity (timer/IPI register ops)
    "violation",     # policy violation (message)
    "fault-inject",  # committed fault injection (site, index, seed)
    "watchdog",      # watchdog state transition (detect/retry/quarantine)
)

#: Ring capacity.  Sized so a full boot (a few thousand events) never
#: wraps — required for the event-counts == trap-counters check — while
#: bounding memory on chaos campaigns.
RING_CAPACITY = 65536

#: Events preserved by a quarantine dump (the "flight recorder" tail).
QUARANTINE_TAIL = 64

#: The trap-path kinds whose records are flat: their payload fields follow
#: the stamps, where other kinds hold one args dict.
_FLAT_KINDS = frozenset({"trap-entry", "trap-exit", "fastpath"})

#: Records recorded between two folds, as a share of the ring capacity:
#: the ring's list holds at most ``1 + 1 / FOLD_SHARE`` times the
#: capacity.
FOLD_SHARE = 4


class TraceEvent:
    """One recorded event: kind + stamps + kind-specific args."""

    __slots__ = ("seq", "kind", "hart", "mtime", "instret", "args")

    def __init__(self, seq: int, kind: str, hart: int, mtime: int,
                 instret: int, args: dict):
        self.seq = seq
        self.kind = kind
        self.hart = hart
        self.mtime = mtime
        self.instret = instret
        self.args = args

    def to_tuple(self) -> tuple:
        """A plain, comparable form (for dumps and determinism checks)."""
        return (self.seq, self.kind, self.hart, self.mtime, self.instret,
                tuple(sorted(self.args.items())))

    def __repr__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.args.items())
        return (f"<TraceEvent #{self.seq} {self.kind} h{self.hart} "
                f"@{self.mtime} {detail}>")


class Tracer:
    """Bounded event recorder plus the metrics fed by trap pairing."""

    def __init__(self):
        # The ring, oldest record first: ``(seq, kind, hart, cycles,
        # instret, args)``, or ``(seq, kind, hart, cycles, instret,
        # *payload)`` for the flat trap-path kinds.  Records from
        # ``_folded`` on are not folded yet and lack their ``seq`` (they
        # are numbered on from ``_folded_seq``); a fold also cuts the
        # list back to the last ``_capacity`` records.  Use
        # :meth:`events` for the materialized :class:`TraceEvent` view.
        self._capacity = RING_CAPACITY
        self._ring: list[tuple] = []
        self._folded = 0
        self._folded_seq = 0
        self._fold_every = max(1, RING_CAPACITY // FOLD_SHARE)
        #: Recording folds once the ring's list is this long: at the
        #: first event, which also captures the clock frequency, then
        #: every ``_fold_every`` events.
        self._fold_at = 1
        # Per-kind counters.  The three kinds on the per-trap path get
        # scalar counters (or are derived: trap-entry == sum of causes);
        # everything else shares one Counter.  Merged by :attr:`counts`.
        self._counts: Counter[str] = Counter()
        self._n_exit = 0
        self._n_fastpath = 0
        self._causes: Counter[str] = Counter()
        self._metrics = MetricsRegistry()
        #: Last-N snapshots taken when the watchdog quarantines firmware,
        #: as ``(reason, events)`` pairs.
        self.quarantine_dumps: list[tuple[str, tuple[TraceEvent, ...]]] = []
        # Per-hart open trap as of the last fold: (cause name,
        # machine.cycles at entry).
        self._open: dict[int, tuple[str, float]] = {}
        # Clock frequency of the traced machine, captured at the first
        # event: events are stamped with the cheap ``machine.cycles``
        # attribute and converted to mtime lazily when materialized.  A
        # tracer therefore records one machine (one run), which every
        # user — CLI, chaos harness, benchmark — already guarantees.
        self._hz: Optional[int] = None

    # -- recording -----------------------------------------------------

    def emit(self, machine, kind: str, hart: int, **args) -> None:
        """Record one event, stamped with mtime and retired instructions."""
        ring = self._ring
        ring.append((kind, hart, machine.cycles, machine.harts[hart].instret,
                     args))
        if len(ring) >= self._fold_at:
            self._fold(machine)

    def trap_entry(self, machine, hartid: int, name: str,
                   is_interrupt: bool) -> None:
        """A hart took a trap, whose cause name ``TrapStats.record_trap``
        passes in; the fold opens the latency span for this hart."""
        # The args dict is built lazily on materialization (a dict per
        # trap is measurable on this path).
        ring = self._ring
        ring.append(("trap-entry", hartid, machine.cycles,
                     machine.harts[hartid].instret, name, is_interrupt))
        if len(ring) >= self._fold_at:
            self._fold(machine)

    # A trap exit and a fast-path hit each follow their trap's entry, so
    # the fold checks in ``trap_entry`` and ``emit`` bound the ring.

    def trap_exit(self, machine, hartid: int, handler: str) -> None:
        """The monitor finished a trap; the fold closes the span, adds the
        cause and latency to this record and feeds the metrics."""
        self._ring.append(("trap-exit", hartid, machine.cycles,
                           machine.harts[hartid].instret, handler))

    def fastpath(self, machine, hartid: int, name: str) -> None:
        """An offload hit — frequent enough to warrant its own lean path."""
        self._ring.append(("fastpath", hartid, machine.cycles,
                           machine.harts[hartid].instret, name))

    def _fold(self, machine=None) -> None:
        """Fold the records since the last fold, in order: number each
        one and count it; then drop the records the ring no longer holds.

        A trap exit pairs with its hart's open entry: the record gains the
        entry's cause and its latency in cycles, and the metrics registry
        observes them.  ``machine``: the recording machine, whose clock
        frequency the first fold captures.
        """
        if self._hz is None and machine is not None:
            self._hz = machine.config.frequency_hz
        ring = self._ring
        counts, causes, opened = self._counts, self._causes, self._open
        observe = self._metrics.observe_trap
        n_exit, n_fastpath = self._n_exit, self._n_fastpath
        seq = self._folded_seq
        for index in range(self._folded, len(ring)):
            record = (seq, *ring[index])
            seq += 1
            kind = record[1]
            if kind == "trap-entry":
                causes[record[5]] += 1
                opened[record[2]] = (record[5], record[3])
            elif kind == "trap-exit":
                n_exit += 1
                entry = opened.pop(record[2], None)
                if entry is not None:
                    cause, latency = entry[0], record[3] - entry[1]
                    record = (*record, cause, latency)
                    observe(cause, record[5], latency)
            elif kind == "fastpath":
                n_fastpath += 1
            else:
                counts[kind] += 1
            ring[index] = record
        self._folded_seq = seq
        self._n_exit, self._n_fastpath = n_exit, n_fastpath
        excess = len(ring) - self._capacity
        if excess > 0:
            del ring[:excess]
        self._folded = len(ring)
        self._fold_at = len(ring) + self._fold_every

    @property
    def _seq(self) -> int:
        """The sequence number of the next event."""
        return self._folded_seq + len(self._ring) - self._folded

    # -- inspection ----------------------------------------------------

    @property
    def counts(self) -> Counter:
        """Cumulative events per kind (exact even after the ring wraps)."""
        self._fold()
        merged = Counter(self._counts)
        entries = sum(self._causes.values())
        if entries:
            merged["trap-entry"] = entries
        if self._n_exit:
            merged["trap-exit"] = self._n_exit
        if self._n_fastpath:
            merged["fastpath"] = self._n_fastpath
        return merged

    @property
    def trap_causes(self) -> Counter:
        """Cumulative trap-entry events per cause name; equal by
        construction to ``TrapStats.trap_counts`` for the same run, whose
        ``record_trap`` is the one caller of :meth:`trap_entry`."""
        self._fold()
        return self._causes

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry, with every recorded trap folded in."""
        self._fold()
        return self._metrics

    @property
    def total_events(self) -> int:
        """Events ever emitted (recorded + dropped)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events the bounded ring has discarded."""
        return self._seq - min(len(self._ring), self._capacity)

    @staticmethod
    def _payload_args(kind: str, payload: list) -> dict:
        """The args of a record from its fields after the stamps."""
        if kind not in _FLAT_KINDS:
            return payload[0]  # emit's args dict
        if kind == "trap-entry":
            return {"cause": payload[0], "interrupt": payload[1]}
        if kind == "fastpath":
            return {"name": payload[0]}
        if len(payload) == 1:  # trap-exit with no matching entry
            return {"handler": payload[0]}
        return {"handler": payload[0], "cause": payload[1],
                "cycles": payload[2]}

    def _materialize(self, records) -> list[TraceEvent]:
        hz = self._hz or 1
        payload_args = self._payload_args
        return [
            TraceEvent(seq, kind, hart, cycles_to_mtime(cycles, hz),
                       instret, payload_args(kind, payload))
            for seq, kind, hart, cycles, instret, *payload in records
        ]

    def events(self) -> list[TraceEvent]:
        self._fold()
        return self._materialize(self._ring)

    def tail(self, n: int) -> list[TraceEvent]:
        """The last ``n`` events still in the ring, oldest first."""
        self._fold()
        return self._materialize(self._ring[-n:] if n > 0 else [])

    def tail_tuples(self, n: int) -> list[tuple]:
        """The last ``n`` events as plain JSON-stable tuples.

        The flight-recorder form embedded in repro bundles
        (:mod:`repro.triage`): each entry is ``(seq, kind, hart, mtime,
        instret, ((arg, value), ...))`` — comparable, sorted-arg, and
        serializable without the :class:`TraceEvent` wrapper.
        """
        return [event.to_tuple() for event in self.tail(n)]

    def note_quarantine(self, reason: str) -> None:
        """Snapshot the last-N events leading up to a quarantine."""
        self.quarantine_dumps.append(
            (reason, tuple(self.tail(QUARANTINE_TAIL))))

    # -- epochs (watchdog restore / checkpoint rewind) --------------------

    def mark_epoch(self) -> dict:
        """Freeze the flight recorder and histograms at a restore point.

        Paired with :meth:`rewind_to_epoch` by the watchdog (and the
        checkpoint layer): when an activation's architectural state is
        rolled back, its trace events and latency observations are rolled
        back with it, keeping ``trap_causes`` equal to the (also rewound)
        ``TrapStats.trap_counts``.
        """
        self._fold()
        return {
            "seq": self._seq,
            "counts": dict(self._counts),
            "n_exit": self._n_exit,
            "n_fastpath": self._n_fastpath,
            "causes": dict(self._causes),
            "metrics": self._metrics.mark_epoch(),
            "open": dict(self._open),
        }

    #: Event kinds that survive an epoch rewind: these record *decisions*
    #: whose own counters are never rolled back (the injector's committed
    #: injections, the watchdog's recover/retry/quarantine transitions,
    #: policy violations).  Dropping them would desynchronize the trace
    #: from those counters; everything else — trap entries/exits,
    #: world switches, emulation steps — is state of the abandoned
    #: activation and is rewound.
    PRESERVED_KINDS = frozenset({"fault-inject", "watchdog", "violation"})

    def rewind_to_epoch(self, epoch: dict) -> None:
        """Drop events and observations recorded after a marked epoch.

        ``quarantine_dumps`` is deliberately untouched: like recovery
        counts, a quarantine record is a fact about the run, not state of
        the abandoned activation.

        An epoch from beyond this tracer's clock (one marked by another
        tracer, e.g. the one attached when a checkpoint was captured) is
        ignored: this tracer has recorded nothing after it.
        """
        seq = epoch["seq"]
        if self._seq < seq:
            return
        # Fold first: the ring is then cut to its capacity, so the
        # records it dropped stay dropped.
        self._fold()
        ring = self._ring
        kept: list[tuple] = []
        while ring and ring[-1][0] >= seq:
            record = ring.pop()
            if record[1] in self.PRESERVED_KINDS:
                kept.append(record)
        kept.reverse()
        self._counts = Counter(epoch["counts"])
        for record in kept:
            ring.append(record)
            self._counts[record[1]] += 1
        self._folded = len(ring)
        # Preserved events keep their sequence numbers, so the clock only
        # rewinds to just past the last survivor (seq stays monotonic).
        self._folded_seq = kept[-1][0] + 1 if kept else seq
        self._fold_at = len(ring) + self._fold_every
        self._n_exit = epoch["n_exit"]
        self._n_fastpath = epoch["n_fastpath"]
        self._causes = Counter(epoch["causes"])
        self._metrics.rewind_to_epoch(epoch["metrics"])
        self._open = dict(epoch["open"])
