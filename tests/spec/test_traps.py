"""Trap delivery, delegation, and xRET semantics of the reference machine."""

import pytest

from repro.isa import constants as c
from repro.isa.bits import get_field
from repro.spec.state import MachineState
from repro.spec.traps import (
    Trap,
    execute_mret,
    execute_sret,
    take_trap,
)
from repro.spec.platform import VISIONFIVE2


@pytest.fixture
def state():
    machine_state = MachineState(VISIONFIVE2)
    machine_state.csr.mtvec = 0x8020_0000
    machine_state.csr.stvec = 0x8400_0100
    return machine_state


class TestDelegation:
    def test_trap_from_m_always_to_m(self, state):
        state.mode = c.M_MODE
        state.csr.medeleg = c.MEDELEG_MASK
        trap = Trap(c.TrapCause.BREAKPOINT)
        assert take_trap(state, trap) == c.M_MODE

    def test_undelegated_exception_to_m(self, state):
        state.mode = c.S_MODE
        assert take_trap(state, Trap(c.TrapCause.ECALL_FROM_S)) == c.M_MODE

    def test_delegated_exception_to_s(self, state):
        state.mode = c.U_MODE
        state.csr.medeleg = 1 << c.TrapCause.ECALL_FROM_U
        assert take_trap(state, Trap(c.TrapCause.ECALL_FROM_U)) == c.S_MODE

    def test_delegated_interrupt_to_s(self, state):
        state.mode = c.S_MODE
        state.csr.mideleg = c.MIP_STIP
        trap = Trap(c.IRQ_STI, is_interrupt=True)
        assert take_trap(state, trap) == c.S_MODE

    def test_undelegated_interrupt_to_m(self, state):
        state.mode = c.S_MODE
        trap = Trap(c.IRQ_MTI, is_interrupt=True)
        assert take_trap(state, trap) == c.M_MODE


class TestTrapDelivery:
    def test_m_trap_sets_state(self, state):
        state.mode = c.S_MODE
        state.pc = 0x8400_1234
        state.csr.mstatus |= c.MSTATUS_MIE
        take_trap(state, Trap(c.TrapCause.ECALL_FROM_S))
        assert state.mode == c.M_MODE
        assert state.pc == 0x8020_0000
        assert state.csr.mepc == 0x8400_1234
        assert state.csr.mcause == c.TrapCause.ECALL_FROM_S
        mstatus = state.csr.mstatus
        assert get_field(mstatus, c.MSTATUS_MPP) == c.S_MODE
        assert mstatus & c.MSTATUS_MPIE
        assert not mstatus & c.MSTATUS_MIE

    def test_s_trap_sets_state(self, state):
        state.mode = c.U_MODE
        state.pc = 0x9000_0000
        state.csr.medeleg = 1 << c.TrapCause.ECALL_FROM_U
        state.csr.mstatus |= c.MSTATUS_SIE
        take_trap(state, Trap(c.TrapCause.ECALL_FROM_U))
        assert state.mode == c.S_MODE
        assert state.pc == 0x8400_0100
        assert state.csr.sepc == 0x9000_0000
        mstatus = state.csr.mstatus
        assert get_field(mstatus, c.MSTATUS_SPP) == 0  # came from U
        assert mstatus & c.MSTATUS_SPIE
        assert not mstatus & c.MSTATUS_SIE

    def test_interrupt_sets_high_bit(self, state):
        take_trap(state, Trap(c.IRQ_MTI, is_interrupt=True))
        assert state.csr.mcause == c.INTERRUPT_BIT | c.IRQ_MTI

    def test_tval_written(self, state):
        take_trap(state, Trap(c.TrapCause.LOAD_ACCESS_FAULT, tval=0xBAD))
        assert state.csr.read(c.CSR_MTVAL) == 0xBAD

    def test_vectored_interrupt_target(self, state):
        state.csr.mtvec = 0x8020_0001  # vectored
        take_trap(state, Trap(c.IRQ_MTI, is_interrupt=True))
        assert state.pc == 0x8020_0000 + 4 * c.IRQ_MTI

    def test_vectored_exception_uses_base(self, state):
        state.csr.mtvec = 0x8020_0001
        take_trap(state, Trap(c.TrapCause.ILLEGAL_INSTRUCTION))
        assert state.pc == 0x8020_0000

    def test_trap_clears_wfi(self, state):
        state.waiting_for_interrupt = True
        take_trap(state, Trap(c.IRQ_MTI, is_interrupt=True))
        assert not state.waiting_for_interrupt


class TestMret:
    def test_returns_to_mpp_and_mepc(self, state):
        state.mode = c.M_MODE
        state.csr.mepc = 0x8400_0000
        state.csr.mstatus = (
            state.csr.mstatus & ~c.MSTATUS_MPP
        ) | (int(c.S_MODE) << c.MSTATUS_MPP_SHIFT) | c.MSTATUS_MPIE
        execute_mret(state)
        assert state.mode == c.S_MODE
        assert state.pc == 0x8400_0000
        assert state.csr.mstatus & c.MSTATUS_MIE  # MPIE -> MIE
        assert state.csr.mstatus & c.MSTATUS_MPIE  # set to 1
        assert get_field(state.csr.mstatus, c.MSTATUS_MPP) == c.U_MODE

    def test_clears_mprv_when_leaving_m(self, state):
        state.csr.mstatus |= c.MSTATUS_MPRV
        state.csr.mstatus = (
            state.csr.mstatus & ~c.MSTATUS_MPP
        ) | (int(c.U_MODE) << c.MSTATUS_MPP_SHIFT)
        execute_mret(state)
        assert not state.csr.mstatus & c.MSTATUS_MPRV

    def test_keeps_mprv_when_staying_m(self, state):
        state.csr.mstatus |= c.MSTATUS_MPRV  # MPP is M at reset
        execute_mret(state)
        assert state.csr.mstatus & c.MSTATUS_MPRV


class TestSret:
    def test_returns_to_spp(self, state):
        state.mode = c.S_MODE
        state.csr.sepc = 0x9000_0000
        state.csr.mstatus |= c.MSTATUS_SPP | c.MSTATUS_SPIE
        execute_sret(state)
        assert state.mode == c.S_MODE  # SPP was 1
        assert state.pc == 0x9000_0000
        assert state.csr.mstatus & c.MSTATUS_SIE
        assert get_field(state.csr.mstatus, c.MSTATUS_SPP) == 0

    def test_returns_to_user(self, state):
        state.mode = c.S_MODE
        state.csr.mstatus &= ~c.MSTATUS_SPP
        execute_sret(state)
        assert state.mode == c.U_MODE


class TestRoundTrip:
    def test_trap_then_mret_restores_context(self, state):
        state.mode = c.S_MODE
        state.pc = 0x8400_5678
        state.csr.mstatus |= c.MSTATUS_MIE
        take_trap(state, Trap(c.TrapCause.ECALL_FROM_S))
        execute_mret(state)
        assert state.mode == c.S_MODE
        assert state.pc == 0x8400_5678
        assert state.csr.mstatus & c.MSTATUS_MIE

    def test_trap_str(self):
        assert "ECALL" in str(Trap(c.TrapCause.ECALL_FROM_S))
        assert "MACHINE_TIMER" in str(Trap(c.IRQ_MTI, is_interrupt=True))


class TestTrapStr:
    def test_named_causes(self):
        assert str(Trap(c.TrapCause.ECALL_FROM_S)) == "exception ECALL_FROM_S"
        assert str(Trap(c.IRQ_MTI, is_interrupt=True)) == "interrupt MACHINE_TIMER"

    def test_unknown_causes_fall_back_to_the_code(self):
        assert str(Trap(30)) == "exception code 30"
        assert str(Trap(30, is_interrupt=True)) == "interrupt code 30"
