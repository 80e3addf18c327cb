"""A tiny RV64 assembler.

Provides a builder-style API used by test programs, the firmware models, and
the verification harness to produce *real* 32-bit instruction words.  Labels
are supported through a classic two-pass assembly.

Example::

    asm = Assembler(base=0x8000_0000)
    asm.label("loop")
    asm.addi("a0", "a0", -1)
    asm.bne("a0", "zero", "loop")
    asm.ecall()
    words = asm.assemble()
"""

from __future__ import annotations

import dataclasses
import struct

from repro.isa.encoding import encode
from repro.isa.instructions import REGISTER_NUMBERS, Instruction, make_instruction


def reg(name_or_number: str | int) -> int:
    """Resolve a register ABI name (or x-name, or number) to its index."""
    if isinstance(name_or_number, int):
        if not 0 <= name_or_number <= 31:
            raise ValueError(f"register number {name_or_number} out of range")
        return name_or_number
    try:
        return REGISTER_NUMBERS[name_or_number]
    except KeyError:
        raise ValueError(f"unknown register {name_or_number!r}") from None


@dataclasses.dataclass
class _PendingInstruction:
    """An instruction whose branch/jump target label is not yet resolved."""

    mnemonic: str
    rd: int
    rs1: int
    rs2: int
    label: str
    csr: int = 0


class Assembler:
    """Two-pass assembler producing a contiguous code image."""

    def __init__(self, base: int = 0):
        self.base = base
        self._items: list[Instruction | _PendingInstruction] = []
        self._labels: dict[str, int] = {}

    # -- core emission ------------------------------------------------

    def emit(self, instr: Instruction) -> "Assembler":
        self._items.append(instr)
        return self

    def label(self, name: str) -> "Assembler":
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._items)
        return self

    @property
    def current_address(self) -> int:
        return self.base + 4 * len(self._items)

    # -- assembly -------------------------------------------------------

    def instructions(self) -> list[Instruction]:
        """Resolve labels and return the instruction list."""
        resolved: list[Instruction] = []
        for index, item in enumerate(self._items):
            if isinstance(item, Instruction):
                resolved.append(item)
                continue
            if item.label not in self._labels:
                raise ValueError(f"undefined label {item.label!r}")
            offset = 4 * (self._labels[item.label] - index)
            resolved.append(
                make_instruction(
                    item.mnemonic,
                    rd=item.rd,
                    rs1=item.rs1,
                    rs2=item.rs2,
                    imm=offset,
                    csr=item.csr,
                )
            )
        return resolved

    def assemble(self) -> list[int]:
        """Return the encoded 32-bit words."""
        return [encode(instr) for instr in self.instructions()]

    def binary(self) -> bytes:
        """Return the little-endian code image."""
        return struct.pack(f"<{len(self._items)}I", *self.assemble())

    # -- instruction helpers -------------------------------------------

    def _rrr(self, mnemonic, rd, rs1, rs2):
        return self.emit(make_instruction(mnemonic, rd=reg(rd), rs1=reg(rs1), rs2=reg(rs2)))

    def _rri(self, mnemonic, rd, rs1, imm):
        return self.emit(make_instruction(mnemonic, rd=reg(rd), rs1=reg(rs1), imm=imm))

    def _branch(self, mnemonic, rs1, rs2, target):
        if isinstance(target, str):
            self._items.append(
                _PendingInstruction(mnemonic, 0, reg(rs1), reg(rs2), target)
            )
            return self
        return self.emit(make_instruction(mnemonic, rs1=reg(rs1), rs2=reg(rs2), imm=target))

    # R-type / I-type arithmetic
    def add(self, rd, rs1, rs2): return self._rrr("add", rd, rs1, rs2)
    def sub(self, rd, rs1, rs2): return self._rrr("sub", rd, rs1, rs2)
    def sll(self, rd, rs1, rs2): return self._rrr("sll", rd, rs1, rs2)
    def slt(self, rd, rs1, rs2): return self._rrr("slt", rd, rs1, rs2)
    def sltu(self, rd, rs1, rs2): return self._rrr("sltu", rd, rs1, rs2)
    def xor(self, rd, rs1, rs2): return self._rrr("xor", rd, rs1, rs2)
    def srl(self, rd, rs1, rs2): return self._rrr("srl", rd, rs1, rs2)
    def sra(self, rd, rs1, rs2): return self._rrr("sra", rd, rs1, rs2)
    def or_(self, rd, rs1, rs2): return self._rrr("or", rd, rs1, rs2)
    def and_(self, rd, rs1, rs2): return self._rrr("and", rd, rs1, rs2)
    def mul(self, rd, rs1, rs2): return self._rrr("mul", rd, rs1, rs2)
    def div(self, rd, rs1, rs2): return self._rrr("div", rd, rs1, rs2)
    def divu(self, rd, rs1, rs2): return self._rrr("divu", rd, rs1, rs2)
    def rem(self, rd, rs1, rs2): return self._rrr("rem", rd, rs1, rs2)
    def remu(self, rd, rs1, rs2): return self._rrr("remu", rd, rs1, rs2)
    def addw(self, rd, rs1, rs2): return self._rrr("addw", rd, rs1, rs2)
    def subw(self, rd, rs1, rs2): return self._rrr("subw", rd, rs1, rs2)

    def addi(self, rd, rs1, imm): return self._rri("addi", rd, rs1, imm)
    def addiw(self, rd, rs1, imm): return self._rri("addiw", rd, rs1, imm)
    def slti(self, rd, rs1, imm): return self._rri("slti", rd, rs1, imm)
    def sltiu(self, rd, rs1, imm): return self._rri("sltiu", rd, rs1, imm)
    def xori(self, rd, rs1, imm): return self._rri("xori", rd, rs1, imm)
    def ori(self, rd, rs1, imm): return self._rri("ori", rd, rs1, imm)
    def andi(self, rd, rs1, imm): return self._rri("andi", rd, rs1, imm)
    def slli(self, rd, rs1, shamt): return self._rri("slli", rd, rs1, shamt)
    def srli(self, rd, rs1, shamt): return self._rri("srli", rd, rs1, shamt)
    def srai(self, rd, rs1, shamt): return self._rri("srai", rd, rs1, shamt)

    # Upper immediates and jumps
    def lui(self, rd, imm): return self.emit(make_instruction("lui", rd=reg(rd), imm=imm))
    def auipc(self, rd, imm): return self.emit(make_instruction("auipc", rd=reg(rd), imm=imm))

    def jal(self, rd, target):
        if isinstance(target, str):
            self._items.append(_PendingInstruction("jal", reg(rd), 0, 0, target))
            return self
        return self.emit(make_instruction("jal", rd=reg(rd), imm=target))

    def jalr(self, rd, rs1, imm=0): return self._rri("jalr", rd, rs1, imm)

    # Branches
    def beq(self, rs1, rs2, target): return self._branch("beq", rs1, rs2, target)
    def bne(self, rs1, rs2, target): return self._branch("bne", rs1, rs2, target)
    def blt(self, rs1, rs2, target): return self._branch("blt", rs1, rs2, target)
    def bge(self, rs1, rs2, target): return self._branch("bge", rs1, rs2, target)
    def bltu(self, rs1, rs2, target): return self._branch("bltu", rs1, rs2, target)
    def bgeu(self, rs1, rs2, target): return self._branch("bgeu", rs1, rs2, target)

    # Loads and stores
    def lb(self, rd, rs1, imm=0): return self._rri("lb", rd, rs1, imm)
    def lh(self, rd, rs1, imm=0): return self._rri("lh", rd, rs1, imm)
    def lw(self, rd, rs1, imm=0): return self._rri("lw", rd, rs1, imm)
    def ld(self, rd, rs1, imm=0): return self._rri("ld", rd, rs1, imm)
    def lbu(self, rd, rs1, imm=0): return self._rri("lbu", rd, rs1, imm)
    def lhu(self, rd, rs1, imm=0): return self._rri("lhu", rd, rs1, imm)
    def lwu(self, rd, rs1, imm=0): return self._rri("lwu", rd, rs1, imm)

    def sb(self, rs2, rs1, imm=0):
        return self.emit(make_instruction("sb", rs1=reg(rs1), rs2=reg(rs2), imm=imm))

    def sh(self, rs2, rs1, imm=0):
        return self.emit(make_instruction("sh", rs1=reg(rs1), rs2=reg(rs2), imm=imm))

    def sw(self, rs2, rs1, imm=0):
        return self.emit(make_instruction("sw", rs1=reg(rs1), rs2=reg(rs2), imm=imm))

    def sd(self, rs2, rs1, imm=0):
        return self.emit(make_instruction("sd", rs1=reg(rs1), rs2=reg(rs2), imm=imm))

    # System instructions
    def ecall(self): return self.emit(make_instruction("ecall"))
    def ebreak(self): return self.emit(make_instruction("ebreak"))
    def mret(self): return self.emit(make_instruction("mret"))
    def sret(self): return self.emit(make_instruction("sret"))
    def wfi(self): return self.emit(make_instruction("wfi"))
    def fence(self): return self.emit(make_instruction("fence"))
    def fence_i(self): return self.emit(make_instruction("fence.i"))

    def sfence_vma(self, rs1="zero", rs2="zero"):
        return self.emit(make_instruction("sfence.vma", rs1=reg(rs1), rs2=reg(rs2)))

    # CSR instructions
    def csrrw(self, rd, csr, rs1):
        return self.emit(make_instruction("csrrw", rd=reg(rd), rs1=reg(rs1), csr=csr))

    def csrrs(self, rd, csr, rs1):
        return self.emit(make_instruction("csrrs", rd=reg(rd), rs1=reg(rs1), csr=csr))

    def csrrc(self, rd, csr, rs1):
        return self.emit(make_instruction("csrrc", rd=reg(rd), rs1=reg(rs1), csr=csr))

    def csrrwi(self, rd, csr, zimm):
        return self.emit(make_instruction("csrrwi", rd=reg(rd), rs1=zimm, csr=csr))

    def csrrsi(self, rd, csr, zimm):
        return self.emit(make_instruction("csrrsi", rd=reg(rd), rs1=zimm, csr=csr))

    def csrrci(self, rd, csr, zimm):
        return self.emit(make_instruction("csrrci", rd=reg(rd), rs1=zimm, csr=csr))

    # Pseudo-instructions
    def nop(self): return self.addi("zero", "zero", 0)
    def mv(self, rd, rs): return self.addi(rd, rs, 0)
    def not_(self, rd, rs): return self.xori(rd, rs, -1)
    def j(self, target): return self.jal("zero", target)
    def ret(self): return self.jalr("zero", "ra", 0)
    def csrr(self, rd, csr): return self.csrrs(rd, csr, "zero")
    def csrw(self, csr, rs): return self.csrrw("zero", csr, rs)
    def csrs(self, csr, rs): return self.csrrs("zero", csr, rs)
    def csrc(self, csr, rs): return self.csrrc("zero", csr, rs)

    def li(self, rd, value):
        """Load an arbitrary 64-bit constant (multi-instruction expansion).

        Uses the classic recursive expansion: emit the constant shifted
        right by 12, shift left, then add the low 12-bit remainder.
        """
        value &= (1 << 64) - 1
        signed = value - (1 << 64) if value >> 63 else value
        if -(1 << 11) <= signed < (1 << 11):
            return self.addi(rd, "zero", signed)
        if -(1 << 31) <= signed < (1 << 31):
            upper = (signed + (1 << 11)) >> 12
            lower = signed - (upper << 12)
            self.lui(rd, upper & 0xFFFFF)
            if lower:
                self.addiw(rd, rd, lower)
            return self
        upper = (signed + (1 << 11)) >> 12  # arithmetic shift
        lower = signed - (upper << 12)  # in [-2048, 2047]
        self.li(rd, upper)
        self.slli(rd, rd, 12)
        if lower:
            self.addi(rd, rd, lower)
        return self
