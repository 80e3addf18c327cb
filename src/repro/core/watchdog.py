"""Firmware watchdog: detect and survive a failing vM-mode firmware.

The monitor's promise (§5) is that the machine keeps running even when
the firmware it hosts is buggy or hostile.  The watchdog supplies the
*recovery* half of that promise:

* **Detection** — each firmware *activation* (boot, or handling one
  injected trap) runs under a trap budget, a no-progress trap-storm
  limit, a nested-injection depth limit, a same-fault repeat limit, and
  a violation quota.  Firmware panics, trap vectors pointing into
  unmapped memory, and hopeless WFIs are reported by the monitor
  directly.
* **Retry** — the :class:`~repro.core.vcpu.VirtContext` is snapshotted
  at the start of every activation; on failure it is restored and the
  activation retried with bounded exponential backoff (charged as host
  cycles).
* **Quarantine** — after :data:`MAX_FIRMWARE_RETRIES` consecutive failures
  the firmware is quarantined: Miralis stops entering vM-mode and serves
  default SBI responses itself so the OS can keep running (or shut down
  cleanly).

Recovery transfers control by raising
:class:`~repro.hart.program.FirmwareRecovered`, which abandons the
Python frames of the wedged firmware instruction stream — the software
analogue of resetting the vM-mode context.  Every decision is counted,
per hart, in :attr:`hart_counters` and annotated in the trap log.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.hart.program import FirmwareRecovered, MachineHalted
from repro.isa import constants as c
from repro.statecopy import copy_state

_INTERRUPT_BIT = c.INTERRUPT_BIT

#: The mode a trap's OS resumes in, by the trap's ``mstatus.MPP``: a trap
#: taken from M-mode belongs to the S-mode OS; MPP=2 is reserved.
_OS_MODE_BY_MPP = (c.U_MODE, c.S_MODE, None, c.S_MODE)

# Detection and recovery limits.  Chaos runs, the one production caller
# that arms the watchdog, use exactly these values.

#: Traps the firmware may take during one activation (boot, or one
#: injected trap) before it is declared wedged.
VM_TRAP_BUDGET = 2_000
#: Identical firmware faults tolerated within one activation before
#: declaring a livelock: memory faults on one mtval (a PMP/access-fault
#: loop), or exception traps repeating one (mcause, mepc, mtval) with
#: only the trapping instruction retired in between (a trap storm).
MAX_FAULT_REPEATS = 16
#: Nested virtual trap injections (trap during trap handling) before
#: declaring a double-trap cascade.
MAX_NESTED_TRAPS = 8
#: Consecutive failed activations before the firmware is quarantined
#: and Miralis serves default SBI responses itself.
MAX_FIRMWARE_RETRIES = 3
#: Cycle cost charged for the first retry; doubles per attempt
#: (bounded exponential backoff).
RETRY_BACKOFF_CYCLES = 10_000
#: Policy violations tolerated within one activation (watchdog mode
#: neutralizes violations instead of halting).
MAX_VIOLATIONS_PER_ACTIVATION = 16


class FirmwareWatchdog:
    """Per-hart failure detection and graceful recovery for vM-mode."""

    def __init__(self, miralis):
        self.miralis = miralis
        self.machine = miralis.machine
        # Imported here, not at module level: ``repro.snapshot`` loads the
        # checkpoint store, which a run without a watchdog (the trap-mix
        # benchmarks) must not pay for at start-up.
        from repro.snapshot.activation import capture_activation

        self._capture_activation = capture_activation
        num_harts = self.machine.config.num_harts
        self.quarantined = [False] * num_harts
        self.consecutive_failures = [0] * num_harts
        #: Whether the hart ever completed a firmware→OS switch; decides
        #: whether quarantine can fall back to the OS or must halt.
        self.os_entered = [False] * num_harts
        #: Decision counts, one Counter per hart: a secondary hart's
        #: fault loop must not be indistinguishable from a hart-0
        #: failure.  The only store of watchdog decisions; every
        #: increment goes through :meth:`count`, and :attr:`counters`
        #: sums them.  Decisions are facts about the run, so an
        #: activation rollback never rewinds them; the trap log's
        #: ``miralis-recovery`` annotations cannot stand in for them,
        #: since several decisions may share one trap event.
        self.hart_counters: list[Counter[str]] = [
            Counter() for _ in range(num_harts)
        ]
        #: One structured record per quarantine decision — the raw
        #: material for repro bundles (see :mod:`repro.triage`).  Each
        #: record carries the hart, the reason, what activation was
        #: abandoned, and a short trap-log tail so the bundle preserves
        #: the flight-recorder window even without a tracer attached.
        self.quarantine_records: list[dict] = []
        # Per-activation state.
        self._vm_traps = [0] * num_harts
        self._inject_depth = [0] * num_harts
        self._last_fault_tval: list[Optional[int]] = [None] * num_harts
        self._fault_repeats = [0] * num_harts
        #: The (mcause, mepc, mtval, instret) the next vM-mode exception
        #: must carry to repeat the last one with no progress (None after
        #: an interrupt or at activation start), and the repeat count.
        self._storm_next: list[Optional[tuple]] = [None] * num_harts
        self._storm_repeats = [0] * num_harts
        self._violations = [0] * num_harts
        self._snapshots: list[Optional[dict]] = [None] * num_harts
        # ("boot",) or ("trap", code, is_interrupt, mtval, mepc, os_mode).
        self._pending: list[Optional[tuple]] = [None] * num_harts

    # ------------------------------------------------------------------
    # State protocol (checkpoints)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        state = {
            "quarantined": list(self.quarantined),
            "consecutive_failures": list(self.consecutive_failures),
            "os_entered": list(self.os_entered),
            "hart_counters": [Counter(per_hart)
                              for per_hart in self.hart_counters],
            "quarantine_records": copy_state(self.quarantine_records),
            "vm_traps": list(self._vm_traps),
            "inject_depth": list(self._inject_depth),
            "last_fault_tval": list(self._last_fault_tval),
            "fault_repeats": list(self._fault_repeats),
            "violations": list(self._violations),
            "snapshots": copy_state(self._snapshots),
            "pending": list(self._pending),
        }
        # Left out while idle, as at every activation boundary, so a
        # checkpoint taken there keeps the document it had before the
        # storm detector existed (and such documents still restore).
        if any(self._storm_next) or any(self._storm_repeats):
            state["storm_next"] = list(self._storm_next)
            state["storm_repeats"] = list(self._storm_repeats)
        return state

    def restore_state(self, state: dict) -> None:
        # Older documents also carry ``counters`` and ``events``, copies
        # of what is restored here; they are ignored.
        self.quarantined[:] = state["quarantined"]
        self.consecutive_failures[:] = state["consecutive_failures"]
        self.os_entered[:] = state["os_entered"]
        self.hart_counters = [Counter(per_hart)
                              for per_hart in state["hart_counters"]]
        self.quarantine_records[:] = copy_state(state["quarantine_records"])
        self._vm_traps[:] = state["vm_traps"]
        self._inject_depth[:] = state["inject_depth"]
        self._last_fault_tval[:] = state["last_fault_tval"]
        self._fault_repeats[:] = state["fault_repeats"]
        num_harts = len(self._storm_next)
        self._storm_next[:] = [
            None if entry is None else tuple(entry)
            for entry in state.get("storm_next", [None] * num_harts)]
        self._storm_repeats[:] = state.get("storm_repeats", [0] * num_harts)
        self._violations[:] = state["violations"]
        self._snapshots[:] = copy_state(state["snapshots"])
        self._pending[:] = [None if entry is None else tuple(entry)
                            for entry in state["pending"]]

    @property
    def counters(self) -> Counter[str]:
        """Decision counts over all harts (a new Counter per read)."""
        total: Counter[str] = Counter()
        for per_hart in self.hart_counters:
            total.update(per_hart)
        return total

    def count(self, hartid: int, name: str) -> None:
        """Count one watchdog decision on ``hartid``."""
        self.hart_counters[hartid][name] += 1

    # ------------------------------------------------------------------
    # Activation lifecycle
    # ------------------------------------------------------------------

    def _reset_activation(self, hartid: int) -> None:
        self._vm_traps[hartid] = 0
        self._inject_depth[hartid] = 0
        self._last_fault_tval[hartid] = None
        self._fault_repeats[hartid] = 0
        self._storm_next[hartid] = None
        self._storm_repeats[hartid] = 0
        self._violations[hartid] = 0

    def _activation_snapshot(self, hart, vctx) -> dict:
        """Everything a retry (or replay) must restore — see
        :mod:`repro.snapshot.activation` for the contract."""
        return self._capture_activation(self, hart, vctx)

    def _activation_restore(self, hart, vctx, snap: dict) -> None:
        from repro.snapshot.activation import restore_activation

        restore_activation(self, hart, vctx, snap)

    def arm_boot(self, hart, vctx) -> None:
        """A firmware boot activation begins (cold boot or retry)."""
        self._snapshots[hart.hartid] = self._activation_snapshot(hart, vctx)
        self._pending[hart.hartid] = ("boot",)
        self._reset_activation(hart.hartid)

    def arm_trap(self, hart, vctx, code, is_interrupt, mtval, mepc) -> None:
        """A trap-handling activation begins (post world switch, pre inject).

        The snapshot is taken *after* ``enter_firmware`` loaded the OS's
        supervisor state into ``vctx``, so restoring it reproduces the
        exact state a retry (or a quarantine fallback to the OS) needs.
        """
        mpp = (hart.state.csr.mstatus & c.MSTATUS_MPP) >> c.MSTATUS_MPP_SHIFT
        os_mode = _OS_MODE_BY_MPP[mpp]
        if os_mode is None:
            raise ValueError(f"{mpp} is not a valid PrivilegeLevel")
        self._snapshots[hart.hartid] = self._activation_snapshot(hart, vctx)
        self._pending[hart.hartid] = (
            "trap", code, is_interrupt, mtval, mepc, os_mode
        )
        self._reset_activation(hart.hartid)

    def note_enter_os(self, hart) -> None:
        """The firmware completed its activation and switched to the OS."""
        hartid = hart.hartid
        self.os_entered[hartid] = True
        self.consecutive_failures[hartid] = 0
        self._snapshots[hartid] = None
        self._pending[hartid] = None
        self._reset_activation(hartid)

    # ------------------------------------------------------------------
    # Detectors (each may raise FirmwareRecovered / MachineHalted)
    # ------------------------------------------------------------------

    def note_vm_trap(self, hart, vctx, mcause, mepc, mtval) -> None:
        """One vM-mode trap: the trap budget and the storm detector.

        Two consecutive exception traps with the same ``(mcause, mepc,
        mtval)`` and exactly one retired instruction between them are one
        repeat: the firmware re-ran the faulting instruction and nothing
        else (this model counts a trapping instruction in ``instret``).
        Any other trap, an interrupt included, resets the count;
        :data:`MAX_FAULT_REPEATS` repeats in one activation are a storm.
        """
        hartid = hart.hartid
        self._vm_traps[hartid] += 1
        if self._vm_traps[hartid] > VM_TRAP_BUDGET:
            self.count(hartid, "detect:trap-budget")
            self.recover(hart, vctx, "vM-mode trap budget exhausted")
        if mcause & _INTERRUPT_BIT:
            self._storm_next[hartid] = None
            self._storm_repeats[hartid] = 0
            return
        instret = hart.instret
        if self._storm_next[hartid] == (mcause, mepc, mtval, instret):
            self._storm_repeats[hartid] += 1
            if self._storm_repeats[hartid] >= MAX_FAULT_REPEATS:
                self.count(hartid, "detect:trap-storm")
                self.recover(
                    hart, vctx,
                    f"firmware re-executing a trapping instruction at "
                    f"{mepc:#x} (cause {mcause}, no progress)",
                )
        else:
            self._storm_repeats[hartid] = 0
        self._storm_next[hartid] = (mcause, mepc, mtval, instret + 1)

    def note_injection(self, hart, vctx) -> None:
        hartid = hart.hartid
        self._inject_depth[hartid] += 1
        if self._inject_depth[hartid] > MAX_NESTED_TRAPS:
            self.count(hartid, "detect:double-trap")
            self.recover(hart, vctx, "virtual double-trap cascade")

    def note_virtual_xret(self, hart) -> None:
        hartid = hart.hartid
        if self._inject_depth[hartid] > 0:
            self._inject_depth[hartid] -= 1

    def note_memory_fault(self, hart, vctx, mtval) -> None:
        hartid = hart.hartid
        if self._last_fault_tval[hartid] == mtval:
            self._fault_repeats[hartid] += 1
        else:
            self._last_fault_tval[hartid] = mtval
            self._fault_repeats[hartid] = 1
        if self._fault_repeats[hartid] >= MAX_FAULT_REPEATS:
            self.count(hartid, "detect:fault-loop")
            self.recover(
                hart, vctx,
                f"firmware faulting repeatedly on {mtval:#x} (PMP/access loop)",
            )

    def note_violation(self, hart, vctx, message: str) -> None:
        hartid = hart.hartid
        self._violations[hartid] += 1
        if self._violations[hartid] >= MAX_VIOLATIONS_PER_ACTIVATION:
            self.count(hartid, "detect:violation-storm")
            self.recover(hart, vctx, f"policy violation storm ({message})")

    def on_panic(self, hart, message: str) -> None:
        """Installed as ``machine.firmware_panic_hook``."""
        from repro.core.vcpu import World

        hartid = hart.hartid
        if self.quarantined[hartid]:
            return
        if self.miralis.world[hartid] is not World.FIRMWARE:
            return
        self.count(hartid, "detect:panic")
        self.recover(hart, self.miralis.vctx[hartid], f"firmware panic: {message}")

    def on_bad_vector(self, hart, vctx, pc: int) -> None:
        self.count(hart.hartid, "detect:bad-vector")
        self.recover(
            hart, vctx,
            f"virtual trap vector targets unmapped memory ({pc:#x})",
        )

    def on_wfi_stall(self, hart, vctx) -> None:
        self.count(hart.hartid, "detect:wfi-stall")
        self.recover(hart, vctx, "wfi with no wakeup source armed")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _trace(self, hartid: int, state: str, reason: str, **args) -> None:
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(self.machine, "watchdog", hartid,
                        state=state, reason=reason, **args)

    def recover(self, hart, vctx, reason: str) -> None:
        """Abandon the current activation: retry it, or quarantine.

        Never returns — raises :class:`FirmwareRecovered` (control
        continues at the recovered pc) or :class:`MachineHalted` (clean
        quarantine halt when no OS exists to fall back to).
        """
        hartid = hart.hartid
        self.count(hartid, "recoveries")
        self._trace(hartid, "recover", reason)
        self.consecutive_failures[hartid] += 1
        attempt = self.consecutive_failures[hartid]
        snapshot = self._snapshots[hartid]
        pending = self._pending[hartid]
        if (attempt > MAX_FIRMWARE_RETRIES
                or snapshot is None or pending is None):
            self._quarantine(hart, vctx, reason)
        # Bounded exponential backoff, charged as monitor host work.
        self.count(hartid, "retries")
        self._trace(hartid, "retry", reason, attempt=attempt)
        backoff = RETRY_BACKOFF_CYCLES * (1 << (attempt - 1))
        self.miralis._charge_host(hart, backoff)
        self._activation_restore(hart, vctx, snapshot)
        # Annotate *after* the restore: the rewind truncated the abandoned
        # activation's trap events, so the annotation lands on the trap
        # that survives it — the one whose handling is being retried.
        self.machine.stats.annotate_last("miralis-recovery", detail=reason, hart=hartid)
        self._reset_activation(hartid)
        if pending[0] == "boot":
            self.miralis.reenter_firmware_boot(hart, vctx)
        else:
            _, code, is_interrupt, mtval, mepc, _ = pending
            self.miralis.reinject_after_recovery(
                hart, vctx, code, is_interrupt, mtval, mepc
            )
        raise FirmwareRecovered(reason)

    #: Trap events preserved in a quarantine record (bundle tail).
    RECORD_TAIL = 16

    def _record_quarantine(self, hartid: int, reason: str, pending) -> None:
        """Capture the repro-bundle material for one quarantine decision."""
        self.quarantine_records.append({
            "hart": hartid,
            "reason": reason,
            "activation": "boot" if pending is None or pending[0] == "boot"
            else "trap",
            "consecutive_failures": self.consecutive_failures[hartid],
            "trap_tail": [
                (e.cause, e.is_interrupt, e.handler, e.detail)
                for e in self.machine.stats.tail(self.RECORD_TAIL)
            ],
        })

    def _quarantine(self, hart, vctx, reason: str) -> None:
        hartid = hart.hartid
        self.quarantined[hartid] = True
        self.count(hartid, "quarantines")
        self._trace(hartid, "quarantine", reason)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.note_quarantine(reason)
        pending = self._pending[hartid]
        snapshot = self._snapshots[hartid]
        # Record the bundle material *before* any restore: the record's
        # trap tail is flight-recorder evidence of the abandoned
        # activation, which the epoch rewind below would truncate.
        self._record_quarantine(hartid, reason, pending)
        self._pending[hartid] = None
        self._snapshots[hartid] = None
        if (pending is not None and pending[0] == "trap"
                and self.os_entered[hartid]):
            if snapshot is not None:
                self._activation_restore(hart, vctx, snapshot)
            self.machine.stats.annotate_last(
                "miralis-recovery", detail=f"quarantine: {reason}", hart=hartid
            )
            # Drop the firmware's M-level interrupt enables: nothing will
            # service them again, and leaving them armed would storm.
            vctx.mie &= c.SIP_MASK
            _, code, is_interrupt, mtval, mepc, os_mode = pending
            self.miralis.resume_os_quarantined(
                hart, vctx, code, is_interrupt, mtval, mepc, os_mode
            )
            raise FirmwareRecovered(f"quarantined: {reason}")
        # Boot-time failure (or no OS yet): nothing to fall back to.
        self.machine.stats.annotate_last(
            "miralis-recovery", detail=f"quarantine: {reason}", hart=hartid
        )
        vctx.mie &= c.SIP_MASK
        self.machine.halt(f"miralis: firmware quarantined ({reason})")
        raise MachineHalted(self.machine.halt_reason)
