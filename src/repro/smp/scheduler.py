"""Deterministic quantum-based SMP scheduler.

The legacy multi-hart flow runs each secondary hart to its parking point
on the caller's stack (``Machine.run_hart_until_parked``) and services
parked harts synchronously from the IPI sender's stack — cross-hart
traffic never interleaves, so the IPI and remote-fence fast paths (§3.4)
are exercised only in degenerate single-stream schedules.

This scheduler makes every STARTED hart a schedulable entity.  Guest
programs keep their suspended-Python-call-stack execution model (a trap
keeps the frames alive exactly like a core's return stack), so each hart
runs on its own cooperative thread.  Concurrency is *never* real: one
baton is passed between the scheduler and exactly one hart thread, and a
hart yields only at its architectural checkpoints (one per
``GuestContext.exec``).  Schedules are therefore a pure function of
(workloads, quantum, seed) — independent of the host's thread scheduler —
which is what makes interleaving fuzzable: the same seed reproduces the
same schedule, byte for byte, down to the trace event stream.

Time: the machine clock is shared.  A waiting hart (wfi, or parked for
IPIs) blocks instead of fast-forwarding ``mtime``; simulated time jumps
to the earliest armed deadline only when *every* live hart is blocked,
and the machine halts deterministically when no wakeup source is armed.
"""

from __future__ import annotations

import random
import threading
from typing import Optional

from repro.hart.program import FirmwareRecovered, MachineHalted

#: Hart lifecycle states, from the scheduler's point of view.
READY = "ready"      # runnable, waiting for a slice
RUNNING = "running"  # holds the baton
BLOCKED = "blocked"  # waiting for an interrupt (wfi or parked)
DONE = "done"        # thread unwound (machine halted or hart never started)


class SmpScheduler:
    """Round-robin interleaving of all started harts.

    ``quantum`` is the slice length in architectural checkpoints (one per
    ``GuestContext.exec``); ``jitter`` widens each slice by a seeded
    ``randint(-jitter, jitter)`` draw for schedule fuzzing.  All draws
    come from ``random.Random(seed)`` consumed in scheduling order only,
    so interleavings are identical across runs for the same seed.
    """

    def __init__(self, machine, quantum: int = 50, seed: int = 0,
                 jitter: int = 0):
        if quantum < 1:
            raise ValueError("quantum must be at least 1 checkpoint")
        if jitter and not 0 < jitter < quantum:
            raise ValueError("jitter must satisfy 0 <= jitter < quantum")
        self.machine = machine
        self.quantum = quantum
        self.jitter = jitter
        self.seed = seed
        self._rng = random.Random(seed)
        num_harts = machine.config.num_harts
        self._status: list[str] = [DONE] * num_harts
        self._threads: list[Optional[threading.Thread]] = [None] * num_harts
        self._events = [threading.Event() for _ in range(num_harts)]
        self._sched_event = threading.Event()
        self._current: Optional[int] = None
        self._steps_left = 0
        self._last_scheduled = -1
        self._error: Optional[BaseException] = None
        #: Scheduling decisions taken (one per granted slice).
        self.slices = 0
        #: Checkpoints executed per hart (progress accounting for tests
        #: and the scaling benchmark).
        self.steps = [0] * num_harts

    # ------------------------------------------------------------------
    # Hooks called from hart threads (checkpoint / wait / start)
    # ------------------------------------------------------------------

    def checkpoint(self, hart) -> None:
        """Preemption point: called once per architectural operation."""
        machine = self.machine
        if machine.halted:
            raise MachineHalted(machine.halt_reason or "halted")
        hartid = hart.hartid
        if hartid != self._current:
            # Host-handler work briefly touching another hart's context
            # (e.g. hart_start setup) is not a preemption point for it.
            return
        self.steps[hartid] += 1
        self._steps_left -= 1
        if self._steps_left > 0:
            return
        self._switch_out(hartid, READY)
        if machine.halted:
            raise MachineHalted(machine.halt_reason or "halted")

    def wait_for_interrupt(self, hart) -> None:
        """Block the hart until an enabled interrupt pends (wfi/park)."""
        machine = self.machine
        state = hart.state
        while True:
            machine.clint.tick()
            if state.csr.mip & state.csr.mie:
                state.waiting_for_interrupt = False
                return
            self._switch_out(hart.hartid, BLOCKED)
            if machine.halted:
                raise MachineHalted(machine.halt_reason or "halted")

    def start_hart(self, hart) -> None:
        """Make a secondary hart schedulable (its entry pc is already set)."""
        hartid = hart.hartid
        if self._threads[hartid] is not None:
            return
        self._launch(hartid, entry=None)

    # ------------------------------------------------------------------
    # Baton passing
    # ------------------------------------------------------------------

    def _switch_out(self, hartid: int, status: str) -> None:
        """Yield the baton to the scheduler; returns when rescheduled."""
        self._status[hartid] = status
        event = self._events[hartid]
        event.clear()
        self._sched_event.set()
        event.wait()

    def _grant_slice(self, hartid: int) -> None:
        self.slices += 1
        length = self.quantum
        if self.jitter:
            length += self._rng.randint(-self.jitter, self.jitter)
        self._steps_left = max(1, length)
        self._current = hartid
        self._last_scheduled = hartid
        self._status[hartid] = RUNNING
        self._sched_event.clear()
        self._events[hartid].set()
        self._sched_event.wait()

    # ------------------------------------------------------------------
    # Hart threads
    # ------------------------------------------------------------------

    def _launch(self, hartid: int, entry: Optional[int]) -> None:
        hart = self.machine.harts[hartid]
        thread = threading.Thread(
            target=self._hart_main, args=(hart, entry),
            name=f"smp-hart-{hartid}", daemon=True,
        )
        self._threads[hartid] = thread
        self._status[hartid] = READY
        thread.start()

    def _hart_main(self, hart, entry: Optional[int]) -> None:
        machine = self.machine
        hartid = hart.hartid
        self._events[hartid].wait()  # first slice
        try:
            if entry is not None:
                hart.state.pc = entry
            while not machine.halted:
                if hart.parked_pc is not None:
                    # Parked idle loop: sleep until an interrupt pends,
                    # service the chain, park again.
                    self.wait_for_interrupt(hart)
                    machine.serve_parked(hart)
                    continue
                try:
                    machine.dispatch_current(hart)
                except FirmwareRecovered:
                    continue
        except MachineHalted:
            pass
        except BaseException as exc:  # noqa: BLE001 — propagated via boot()
            if self._error is None:
                self._error = exc
            machine.halt(
                f"smp: hart {hartid} raised {type(exc).__name__}: {exc}"
            )
        finally:
            self._status[hartid] = DONE
            self._sched_event.set()

    # ------------------------------------------------------------------
    # The scheduling loop
    # ------------------------------------------------------------------

    def boot(self, entry: Optional[int] = None) -> str:
        """Boot hart 0 at ``entry`` and schedule until halt.

        Returns the halt reason; re-raises the first exception a hart
        thread leaked (matching ``Machine.boot`` semantics).
        """
        machine = self.machine
        if machine.scheduler is not self:
            machine.scheduler = self
        self._launch(0, entry)
        try:
            self._loop()
        finally:
            self._drain()
            for thread in self._threads:
                if thread is not None:
                    thread.join(timeout=30.0)
        if self._error is not None:
            raise self._error
        return machine.halt_reason or "halted"

    def _alive(self) -> list[int]:
        return [h for h, status in enumerate(self._status) if status != DONE]

    def _loop(self) -> None:
        machine = self.machine
        while True:
            alive = self._alive()
            if not alive or machine.halted:
                return
            target = self._pick(alive)
            if target is None:
                if not machine.fast_forward([
                        deadline for hartid in alive
                        if self._status[hartid] == BLOCKED
                        for deadline in machine.wakeup_deadlines(
                            machine.harts[hartid])]):
                    machine.halt(
                        "smp: all harts idle with no wakeup source armed"
                    )
                    return
                continue
            self._grant_slice(target)

    def _pick(self, alive: list[int]) -> Optional[int]:
        """Next runnable hart in round-robin order, or None."""
        self.machine.clint.tick()
        num_harts = self.machine.config.num_harts
        start = self._last_scheduled + 1
        for offset in range(num_harts):
            hartid = (start + offset) % num_harts
            status = self._status[hartid]
            if status == READY:
                return hartid
            if status == BLOCKED:
                state = self.machine.harts[hartid].state
                if state.csr.mip & state.csr.mie:
                    return hartid
        return None

    def _drain(self) -> None:
        """Wake every live thread so it observes the halt and unwinds."""
        if not self.machine.halted:
            self.machine.halt(self.machine.halt_reason or "halted")
        for _ in range(16 * len(self._status) + 16):
            alive = self._alive()
            if not alive:
                return
            hartid = alive[0]
            if self._status[hartid] == RUNNING:
                # The thread still holds the baton (it set _sched_event on
                # unwind); wait for it below via the event.
                pass
            self._sched_event.clear()
            self._events[hartid].set()
            self._sched_event.wait(timeout=30.0)
