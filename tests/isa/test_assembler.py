"""Tests for the two-pass assembler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.asm import Assembler, reg
from repro.isa.decoder import decode
from repro.spec.platform import VISIONFIVE2
from repro.spec.state import MachineState
from repro.spec.step import execute_instruction


class TestRegisterNames:
    def test_abi_names(self):
        assert reg("zero") == 0
        assert reg("ra") == 1
        assert reg("sp") == 2
        assert reg("a0") == 10
        assert reg("t6") == 31

    def test_x_names(self):
        assert reg("x0") == 0
        assert reg("x31") == 31

    def test_fp_alias(self):
        assert reg("fp") == reg("s0") == 8

    def test_numbers_pass_through(self):
        assert reg(7) == 7

    def test_bad_name(self):
        with pytest.raises(ValueError):
            reg("q7")

    def test_bad_number(self):
        with pytest.raises(ValueError):
            reg(32)


class TestLabels:
    def test_backward_branch(self):
        asm = Assembler(base=0x1000)
        asm.label("top")
        asm.nop()
        asm.j("top")
        instrs = asm.instructions()
        assert instrs[1].imm == -4

    def test_forward_branch(self):
        asm = Assembler()
        asm.beq("a0", "zero", "done")
        asm.nop()
        asm.label("done")
        asm.nop()
        assert asm.instructions()[0].imm == 8

    def test_duplicate_label_rejected(self):
        asm = Assembler()
        asm.label("x")
        with pytest.raises(ValueError):
            asm.label("x")

    def test_undefined_label_rejected(self):
        asm = Assembler()
        asm.j("nowhere")
        with pytest.raises(ValueError):
            asm.instructions()


class TestBinary:
    def test_binary_little_endian(self):
        asm = Assembler()
        asm.nop()
        assert asm.binary() == (0x13).to_bytes(4, "little")

    def test_all_words_decodable(self):
        asm = Assembler()
        asm.li("a0", 123456789)
        asm.csrr("t0", 0x300)
        asm.sfence_vma()
        asm.fence()
        for word in asm.assemble():
            decode(word)  # must not raise


class TestLi:
    """The li expansion must place the exact constant in the register."""

    def _run_li(self, value: int) -> int:
        asm = Assembler()
        asm.li("a0", value)
        state = MachineState(VISIONFIVE2)
        for word in asm.assemble():
            execute_instruction(state, decode(word))
        return state.get_xreg(10)

    @pytest.mark.parametrize("value", [
        0, 1, -1 & ((1 << 64) - 1), 2047, 2048, -2048 & ((1 << 64) - 1),
        0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x1_0000_0000,
        0xDEAD_BEEF_CAFE_F00D, (1 << 63), (1 << 64) - 1, 0x8000_0000_0000_0001,
    ])
    def test_boundary_constants(self, value):
        assert self._run_li(value) == value & ((1 << 64) - 1)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_li_property(self, value):
        assert self._run_li(value) == value


class TestPseudoInstructions:
    def test_nop_is_addi(self):
        asm = Assembler()
        asm.nop()
        instr = asm.instructions()[0]
        assert (instr.mnemonic, instr.rd, instr.rs1, instr.imm) == ("addi", 0, 0, 0)

    def test_mv(self):
        asm = Assembler()
        asm.mv("a1", "a0")
        instr = asm.instructions()[0]
        assert (instr.mnemonic, instr.rd, instr.rs1) == ("addi", 11, 10)

    def test_csrw_discards_result(self):
        asm = Assembler()
        asm.csrw(0x300, "t0")
        assert asm.instructions()[0].rd == 0

    def test_ret(self):
        asm = Assembler()
        asm.ret()
        instr = asm.instructions()[0]
        assert (instr.mnemonic, instr.rd, instr.rs1) == ("jalr", 0, 1)
