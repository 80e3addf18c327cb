"""A hart: architectural state plus the execute/trap/charge glue."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hart.cycles import TIMEBASE_FREQUENCY, mnemonic_cost_table
from repro.isa import constants as c
from repro.isa.instructions import Instruction
from repro.spec.interrupts import pending_interrupt
from repro.spec.state import MachineState
from repro.spec.step import Outcome, execute_instruction
from repro.spec.traps import take_trap

if TYPE_CHECKING:
    from repro.hart.machine import Machine

# Constants ``execute`` and ``check_interrupts`` read on every
# instruction, bound once.
_M_MODE = c.M_MODE
_CSR_MINSTRET = c.CSR_MINSTRET
_CSR_MCYCLE = c.CSR_MCYCLE
_MIP_MASK = c.MIP_MASK
_MENVCFG_STCE = c.MENVCFG_STCE


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
        self._clint = machine.clint
        # Whether ``stimecmp`` can drive STIP (Sstc, when menvcfg.STCE).
        self._has_sstc = machine.config.has_sstc
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
            if machine.spec_bus.device_at(
                    outcome.memory_access.address) is not None:
                cost += model.mmio_access
        trap = outcome.trap
        if trap is not None:
            cost += (
                model.trap_entry
                if state.mode == _M_MODE
                else model.trap_entry_s
            )
            # Positional: hart, cause, is_interrupt, from_mode (None: the
            # mode before the trap is folded into the cause), mtime, pc.
            machine.stats.record_trap(
                self.hartid, trap.cause, trap.is_interrupt, None,
                # Machine.read_mtime, inlined.
                int(machine.cycles * TIMEBASE_FREQUENCY
                    / machine._frequency_hz),
                state.pc)
        self.cycles += cost
        machine.cycles += cost
        self.instret += 1
        simple = state.csr._simple
        simple[_CSR_MINSTRET] = self.instret
        simple[_CSR_MCYCLE] = int(self.cycles)
        return outcome

    def check_interrupts(self) -> bool:
        """Deliver a pending interrupt if any.  Returns True if one was taken."""
        clint = self._clint
        # Clint.tick's quiet-window test, in place: tick only outside it.
        if not (clint._cycles_lo <= self.machine.cycles < clint._cycles_hi
                and clint.mtimecmp == clint._window_cmp):
            clint.tick()
        csr = self.state.csr
        # The "nothing ready" case of pending_interrupt.  CsrFile.mip
        # reads the same bits, and is needed only where stimecmp drives
        # STIP.
        if self._has_sstc and csr.menvcfg & _MENVCFG_STCE:
            if not csr.mip & csr.mie:
                return False
        elif not (csr.mip_sw | csr.mip_hw) & csr.mie & _MIP_MASK:
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
            pc=self.state.pc,
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
