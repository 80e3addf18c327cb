"""A hart: architectural state plus the execute/trap/charge glue."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hart.cycles import mnemonic_cost_table
from repro.isa import constants as c
from repro.isa.instructions import Instruction
from repro.spec.interrupts import pending_interrupt
from repro.spec.state import MachineState
from repro.spec.step import Outcome, execute_instruction
from repro.spec.traps import take_trap

if TYPE_CHECKING:
    from repro.hart.machine import Machine


class Hart:
    """One hardware thread of the simulated machine."""

    def __init__(self, machine: "Machine", hartid: int):
        self.machine = machine
        self.hartid = hartid
        self.state = MachineState(
            machine.config, hartid=hartid, time_source=machine.read_mtime
        )
        self.cycle_model = machine.cycle_model
        self._cost_table = mnemonic_cost_table(machine.cycle_model)
        self.cycles = 0.0
        self.instret = 0
        #: When parked (idle in wfi), the pc handlers must return to so the
        #: machine can service interrupts on this hart from another hart's
        #: execution context (IPIs).
        self.parked_pc: Optional[int] = None

    # -- cycle accounting ---------------------------------------------

    def charge(self, cycles: float) -> None:
        self.cycles += cycles
        self.machine.cycles += cycles

    # -- execution ------------------------------------------------------

    def execute(self, instr: Instruction) -> Outcome:
        """Execute one instruction via the reference spec and charge cycles."""
        model = self.cycle_model
        machine = self.machine
        state = self.state
        outcome = execute_instruction(state, instr, machine.spec_bus)
        cost = self._cost_table.get(instr.mnemonic)
        if cost is None:
            cost = model.instruction
        if outcome.memory_access is not None:
            if machine.is_mmio(outcome.memory_access.address):
                cost += model.mmio_access
        trap = outcome.trap
        if trap is not None:
            cost += (
                model.trap_entry
                if state.mode == c.M_MODE
                else model.trap_entry_s
            )
            machine.stats.record_trap(
                hart=self.hartid,
                cause=trap.cause,
                is_interrupt=trap.is_interrupt,
                from_mode=None,  # mode before the trap is folded into cause
                mtime=machine.read_mtime(),
            )
            tracer = machine.tracer
            if tracer is not None:
                tracer.trap_entry(
                    machine, self.hartid, trap.cause, trap.is_interrupt,
                )
            coverage = machine.coverage
            if coverage is not None:
                view = machine.world_view
                coverage.record(
                    self.hartid, trap.cause, trap.is_interrupt, state.pc,
                    None if view is None else view[self.hartid],
                )
        self.cycles += cost
        machine.cycles += cost
        self.instret += 1
        simple = state.csr._simple
        simple[c.CSR_MINSTRET] = self.instret
        simple[c.CSR_MCYCLE] = int(self.cycles)
        return outcome

    def check_interrupts(self) -> bool:
        """Deliver a pending interrupt if any.  Returns True if one was taken."""
        self.machine.clint.tick()
        csr = self.state.csr
        # ``mip`` is already masked by MIP_MASK, so this is exactly the
        # "nothing ready" case of pending_interrupt.
        if not csr.mip & csr.mie:
            return False
        trap = pending_interrupt(self.state)
        if trap is None:
            return False
        from_mode = self.state.mode
        target = take_trap(self.state, trap)
        self.state.waiting_for_interrupt = False
        self.charge(
            self.cycle_model.trap_entry
            if target == c.M_MODE
            else self.cycle_model.trap_entry_s
        )
        self.machine.stats.record_trap(
            hart=self.hartid,
            cause=trap.cause,
            is_interrupt=True,
            from_mode=from_mode,
            mtime=self.machine.read_mtime(),
        )
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.trap_entry(self.machine, self.hartid, trap.cause, True)
        coverage = self.machine.coverage
        if coverage is not None:
            view = self.machine.world_view
            coverage.record(
                self.hartid, trap.cause, True, self.state.pc,
                None if view is None else view[self.hartid],
            )
        return True

    # -- state protocol -------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "cycles": self.cycles,
            "instret": self.instret,
            "parked_pc": self.parked_pc,
            "state": self.state.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.cycles = state["cycles"]
        self.instret = state["instret"]
        self.parked_pc = state["parked_pc"]
        self.state.restore_state(state["state"])

    def __repr__(self) -> str:
        return f"<Hart {self.hartid} pc={self.state.pc:#x} mode={self.state.mode.short_name}>"
