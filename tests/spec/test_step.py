"""The reference transition function: ALU, memory, CSR, and system ops."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import constants as c
from repro.isa.instructions import Instruction
from repro.spec.platform import PREMIER_P550, VISIONFIVE2
from repro.spec.state import MachineState
from repro.spec.step import BusError, Outcome, execute_instruction
from repro.spec.traps import Trap

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
MASK = (1 << 64) - 1


class DictBus:
    """Simple byte-addressed memory for spec-level tests."""

    def __init__(self):
        self.data: dict[int, int] = {}

    def read(self, address, size):
        return int.from_bytes(
            bytes(self.data.get(address + i, 0) for i in range(size)), "little"
        )

    def write(self, address, size, value):
        for i, byte in enumerate(value.to_bytes(size, "little")):
            self.data[address + i] = byte


@pytest.fixture
def state():
    machine_state = MachineState(VISIONFIVE2)
    machine_state.pc = 0x8000_0000
    machine_state.csr.mtvec = 0x8020_0000
    return machine_state


def run(state, instr, bus=None):
    if bus is None:
        bus = DictBus()
    return execute_instruction(state, instr, bus)


class TestAlu:
    def test_addi(self, state):
        state.set_xreg(1, 40)
        run(state, Instruction("addi", rd=2, rs1=1, imm=2))
        assert state.get_xreg(2) == 42
        assert state.pc == 0x8000_0004

    def test_addi_wraps(self, state):
        state.set_xreg(1, MASK)
        run(state, Instruction("addi", rd=2, rs1=1, imm=1))
        assert state.get_xreg(2) == 0

    def test_x0_always_zero(self, state):
        state.set_xreg(1, 99)
        run(state, Instruction("addi", rd=0, rs1=1, imm=0))
        assert state.get_xreg(0) == 0

    def test_sub(self, state):
        state.set_xreg(1, 5)
        state.set_xreg(2, 7)
        run(state, Instruction("sub", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == MASK - 1  # -2

    def test_slt_signed(self, state):
        state.set_xreg(1, MASK)  # -1
        state.set_xreg(2, 1)
        run(state, Instruction("slt", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == 1

    def test_sltu_unsigned(self, state):
        state.set_xreg(1, MASK)
        state.set_xreg(2, 1)
        run(state, Instruction("sltu", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == 0

    def test_sra_arithmetic(self, state):
        state.set_xreg(1, 1 << 63)
        state.set_xreg(2, 63)
        run(state, Instruction("sra", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == MASK  # -1

    def test_srl_logical(self, state):
        state.set_xreg(1, 1 << 63)
        state.set_xreg(2, 63)
        run(state, Instruction("srl", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == 1

    def test_addiw_sign_extends(self, state):
        state.set_xreg(1, 0x7FFF_FFFF)
        run(state, Instruction("addiw", rd=2, rs1=1, imm=1))
        assert state.get_xreg(2) == 0xFFFF_FFFF_8000_0000

    def test_addw_truncates(self, state):
        state.set_xreg(1, 0x1_0000_0001)
        state.set_xreg(2, 1)
        run(state, Instruction("addw", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == 2

    def test_lui(self, state):
        run(state, Instruction("lui", rd=1, imm=0x80000))
        assert state.get_xreg(1) == 0xFFFF_FFFF_8000_0000

    def test_auipc(self, state):
        run(state, Instruction("auipc", rd=1, imm=1))
        assert state.get_xreg(1) == 0x8000_1000


class TestMulDiv:
    def test_mul(self, state):
        state.set_xreg(1, 7)
        state.set_xreg(2, 6)
        run(state, Instruction("mul", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == 42

    def test_mulh_signed(self, state):
        state.set_xreg(1, MASK)  # -1
        state.set_xreg(2, MASK)  # -1
        run(state, Instruction("mulh", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == 0  # (-1 * -1) >> 64

    def test_mulhu(self, state):
        state.set_xreg(1, MASK)
        state.set_xreg(2, MASK)
        run(state, Instruction("mulhu", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == MASK - 1

    def test_div_round_toward_zero(self, state):
        state.set_xreg(1, (-7) & MASK)
        state.set_xreg(2, 2)
        run(state, Instruction("div", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == (-3) & MASK

    def test_div_by_zero(self, state):
        state.set_xreg(1, 42)
        state.set_xreg(2, 0)
        run(state, Instruction("div", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == MASK  # -1

    def test_div_overflow(self, state):
        state.set_xreg(1, 1 << 63)
        state.set_xreg(2, MASK)
        run(state, Instruction("div", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == 1 << 63

    def test_rem_by_zero_returns_dividend(self, state):
        state.set_xreg(1, 42)
        state.set_xreg(2, 0)
        run(state, Instruction("rem", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == 42

    def test_rem_overflow(self, state):
        state.set_xreg(1, 1 << 63)
        state.set_xreg(2, MASK)
        run(state, Instruction("rem", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == 0

    def test_divu_by_zero(self, state):
        state.set_xreg(1, 42)
        state.set_xreg(2, 0)
        run(state, Instruction("divu", rd=3, rs1=1, rs2=2))
        assert state.get_xreg(3) == MASK

    @given(u64, u64)
    def test_divu_remu_identity(self, a, b):
        state = MachineState(VISIONFIVE2)
        state.set_xreg(1, a)
        state.set_xreg(2, b)
        run(state, Instruction("divu", rd=3, rs1=1, rs2=2))
        run(state, Instruction("remu", rd=4, rs1=1, rs2=2))
        if b != 0:
            q, r = state.get_xreg(3), state.get_xreg(4)
            assert (q * b + r) & MASK == a


class TestControlFlow:
    def test_jal(self, state):
        run(state, Instruction("jal", rd=1, imm=0x100))
        assert state.pc == 0x8000_0100
        assert state.get_xreg(1) == 0x8000_0004

    def test_jalr_clears_low_bit(self, state):
        state.set_xreg(1, 0x8000_1001)
        run(state, Instruction("jalr", rd=2, rs1=1, imm=0))
        assert state.pc == 0x8000_1000

    def test_branch_taken(self, state):
        state.set_xreg(1, 1)
        state.set_xreg(2, 1)
        run(state, Instruction("beq", rs1=1, rs2=2, imm=0x40))
        assert state.pc == 0x8000_0040

    def test_branch_not_taken(self, state):
        run(state, Instruction("bne", rs1=0, rs2=0, imm=0x40))
        assert state.pc == 0x8000_0004

    @pytest.mark.parametrize("mnemonic,a,b,taken", [
        ("blt", MASK, 1, True),   # -1 < 1 signed
        ("bltu", MASK, 1, False),
        ("bge", 0, MASK, True),   # 0 >= -1 signed
        ("bgeu", 0, MASK, False),
    ])
    def test_signed_unsigned_branches(self, state, mnemonic, a, b, taken):
        state.set_xreg(1, a)
        state.set_xreg(2, b)
        run(state, Instruction(mnemonic, rs1=1, rs2=2, imm=0x40))
        assert (state.pc == 0x8000_0040) is taken


class TestMemory:
    def test_store_load_roundtrip(self, state):
        bus = DictBus()
        state.set_xreg(1, 0x8400_0000)
        state.set_xreg(2, 0xDEAD_BEEF_CAFE_F00D)
        run(state, Instruction("sd", rs1=1, rs2=2), bus)
        run(state, Instruction("ld", rd=3, rs1=1), bus)
        assert state.get_xreg(3) == 0xDEAD_BEEF_CAFE_F00D

    def test_lb_sign_extends(self, state):
        bus = DictBus()
        bus.write(0x8400_0000, 1, 0x80)
        state.set_xreg(1, 0x8400_0000)
        run(state, Instruction("lb", rd=2, rs1=1), bus)
        assert state.get_xreg(2) == MASK & ~0x7F

    def test_lbu_zero_extends(self, state):
        bus = DictBus()
        bus.write(0x8400_0000, 1, 0x80)
        state.set_xreg(1, 0x8400_0000)
        run(state, Instruction("lbu", rd=2, rs1=1), bus)
        assert state.get_xreg(2) == 0x80

    def test_misaligned_load_traps_on_vf2(self, state):
        state.set_xreg(1, 0x8400_0001)
        outcome = run(state, Instruction("lw", rd=2, rs1=1))
        assert outcome.trap is not None
        assert outcome.trap.cause == c.TrapCause.LOAD_ADDRESS_MISALIGNED
        assert state.csr.read(c.CSR_MTVAL) == 0x8400_0001
        assert state.pc == 0x8020_0000  # at the trap vector

    def test_misaligned_ok_on_p550(self):
        state = MachineState(PREMIER_P550)
        bus = DictBus()
        state.set_xreg(1, 0x8400_0001)
        outcome = run(state, Instruction("lw", rd=2, rs1=1), bus)
        assert outcome.trap is None

    def test_bus_error_becomes_access_fault(self, state):
        class FaultingBus:
            def read(self, a, s):
                raise BusError("nope")

            def write(self, a, s, v):
                raise BusError("nope")

        state.mode = c.M_MODE
        state.set_xreg(1, 0x8400_0000)
        outcome = execute_instruction(
            state, Instruction("ld", rd=2, rs1=1), FaultingBus()
        )
        assert outcome.trap.cause == c.TrapCause.LOAD_ACCESS_FAULT

    def test_pmp_denies_s_mode_without_entries(self, state):
        state.mode = c.S_MODE
        state.set_xreg(1, 0x8400_0000)
        outcome = run(state, Instruction("ld", rd=2, rs1=1))
        assert outcome.trap.cause == c.TrapCause.LOAD_ACCESS_FAULT

    def test_mprv_uses_mpp_for_loads(self, state):
        # M-mode with MPRV=1 and MPP=S: loads use S-mode PMP rules.
        state.csr.mstatus |= c.MSTATUS_MPRV
        state.csr.mstatus = (
            state.csr.mstatus & ~c.MSTATUS_MPP
        ) | (int(c.S_MODE) << c.MSTATUS_MPP_SHIFT)
        state.set_xreg(1, 0x8400_0000)
        outcome = run(state, Instruction("ld", rd=2, rs1=1))
        assert outcome.trap is not None  # S view has no PMP grants
        assert outcome.trap.cause == c.TrapCause.LOAD_ACCESS_FAULT


class TestCsrInstructions:
    def test_csrrw_swaps(self, state):
        state.csr.write(c.CSR_MSCRATCH, 0x111)
        state.set_xreg(1, 0x222)
        run(state, Instruction("csrrw", rd=2, rs1=1, csr=c.CSR_MSCRATCH))
        assert state.get_xreg(2) == 0x111
        assert state.csr.read(c.CSR_MSCRATCH) == 0x222

    def test_csrrs_with_x0_does_not_write(self, state):
        run(state, Instruction("csrrs", rd=1, rs1=0, csr=c.CSR_MHARTID))
        assert state.get_xreg(1) == 0  # hart 0; and no trap on RO CSR

    def test_csrrw_to_read_only_traps(self, state):
        outcome = run(state, Instruction("csrrw", rd=1, rs1=1, csr=c.CSR_MHARTID))
        assert outcome.trap.cause == c.TrapCause.ILLEGAL_INSTRUCTION

    def test_csrrci_clears_bits(self, state):
        state.csr.write(c.CSR_MSCRATCH, 0b1111)
        run(state, Instruction("csrrci", rd=1, rs1=0b101, csr=c.CSR_MSCRATCH))
        assert state.csr.read(c.CSR_MSCRATCH) == 0b1010

    def test_s_mode_cannot_touch_m_csrs(self, state):
        state.mode = c.S_MODE
        outcome = run(state, Instruction("csrrs", rd=1, rs1=0, csr=c.CSR_MSTATUS))
        assert outcome.trap.cause == c.TrapCause.ILLEGAL_INSTRUCTION

    def test_time_read_traps_on_vf2(self, state):
        state.mode = c.S_MODE
        outcome = run(state, Instruction("csrrs", rd=1, rs1=0, csr=c.CSR_TIME))
        assert outcome.trap.cause == c.TrapCause.ILLEGAL_INSTRUCTION

    def test_tvm_traps_satp_access(self, state):
        state.mode = c.S_MODE
        state.csr.mstatus |= c.MSTATUS_TVM
        outcome = run(state, Instruction("csrrs", rd=1, rs1=0, csr=c.CSR_SATP))
        assert outcome.trap.cause == c.TrapCause.ILLEGAL_INSTRUCTION

    def test_counter_gating(self, state):
        state.mode = c.S_MODE
        outcome = run(state, Instruction("csrrs", rd=1, rs1=0, csr=c.CSR_CYCLE))
        assert outcome.trap is not None  # mcounteren.CY = 0
        state.mode = c.M_MODE
        state.csr.write(c.CSR_MCOUNTEREN, 1)
        state.mode = c.S_MODE
        state.pc = 0x8000_0000
        outcome = run(state, Instruction("csrrs", rd=1, rs1=0, csr=c.CSR_CYCLE))
        assert outcome.trap is None

    def test_repeated_illegal_instruction_shares_its_outcome(self, state):
        """A trapping word's Trap and Outcome are immutable, so each
        execution of it returns the one shared outcome, with the same
        architectural effect as a fresh one."""
        instr = Instruction("csrrs", rd=1, rs1=0, csr=c.CSR_MSTATUS)
        outcomes = []
        for _ in range(2):
            state.mode = c.U_MODE
            state.pc = 0x8000_0000
            outcomes.append(run(state, instr))
            assert state.csr.read(c.CSR_MTVAL) == instr.word
            assert state.csr.mcause == c.TrapCause.ILLEGAL_INSTRUCTION
        assert outcomes[0] is outcomes[1]
        assert outcomes[0] == Outcome(trap=Trap(
            c.TrapCause.ILLEGAL_INSTRUCTION, tval=instr.word))


class TestSystemInstructions:
    def test_ecall_from_each_mode(self, state):
        for mode, cause in (
            (c.U_MODE, c.TrapCause.ECALL_FROM_U),
            (c.S_MODE, c.TrapCause.ECALL_FROM_S),
            (c.M_MODE, c.TrapCause.ECALL_FROM_M),
        ):
            fresh = MachineState(VISIONFIVE2)
            fresh.csr.mtvec = 0x8020_0000
            fresh.mode = mode
            outcome = run(fresh, Instruction("ecall"))
            assert outcome.trap.cause == cause

    def test_ebreak(self, state):
        outcome = run(state, Instruction("ebreak"))
        assert outcome.trap.cause == c.TrapCause.BREAKPOINT

    def test_mret_from_u_traps(self, state):
        state.mode = c.U_MODE
        outcome = run(state, Instruction("mret"))
        assert outcome.trap.cause == c.TrapCause.ILLEGAL_INSTRUCTION

    def test_wfi_from_u_traps(self, state):
        state.mode = c.U_MODE
        outcome = run(state, Instruction("wfi"))
        assert outcome.trap.cause == c.TrapCause.ILLEGAL_INSTRUCTION

    def test_wfi_from_s_with_tw_traps(self, state):
        state.mode = c.S_MODE
        state.csr.mstatus |= c.MSTATUS_TW
        outcome = run(state, Instruction("wfi"))
        assert outcome.trap.cause == c.TrapCause.ILLEGAL_INSTRUCTION

    def test_wfi_from_m_waits(self, state):
        outcome = run(state, Instruction("wfi"))
        assert outcome.is_wfi and state.waiting_for_interrupt
        assert state.pc == 0x8000_0004

    def test_sret_with_tsr_traps(self, state):
        state.mode = c.S_MODE
        state.csr.mstatus |= c.MSTATUS_TSR
        outcome = run(state, Instruction("sret"))
        assert outcome.trap.cause == c.TrapCause.ILLEGAL_INSTRUCTION

    def test_sfence_from_u_traps(self, state):
        state.mode = c.U_MODE
        outcome = run(state, Instruction("sfence.vma"))
        assert outcome.trap.cause == c.TrapCause.ILLEGAL_INSTRUCTION

    def test_sfence_with_tvm_traps(self, state):
        state.mode = c.S_MODE
        state.csr.mstatus |= c.MSTATUS_TVM
        outcome = run(state, Instruction("sfence.vma"))
        assert outcome.trap.cause == c.TrapCause.ILLEGAL_INSTRUCTION

    def test_fence_is_noop(self, state):
        outcome = run(state, Instruction("fence"))
        assert outcome.trap is None
        assert state.pc == 0x8000_0004

    def test_illegal_instruction_tval_holds_encoding(self, state):
        from repro.isa.encoding import encode

        state.mode = c.U_MODE
        instr = Instruction("mret")
        run(state, instr)
        assert state.csr.read(c.CSR_MTVAL) == encode(instr)
