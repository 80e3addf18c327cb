"""Binary encoding of RV64 instructions.

This module contains the shared opcode/funct tables and the
:func:`encode` function turning an :class:`~repro.isa.instructions.Instruction`
into its 32-bit word.  :mod:`repro.isa.decoder` implements the inverse.
The two are property-tested as exact inverses (see ``tests/isa``).
"""

from __future__ import annotations

from repro.isa.bits import bits
from repro.isa.instructions import Instruction

# Major opcodes
OPCODE_LOAD = 0x03
OPCODE_MISC_MEM = 0x0F
OPCODE_OP_IMM = 0x13
OPCODE_AUIPC = 0x17
OPCODE_OP_IMM_32 = 0x1B
OPCODE_STORE = 0x23
OPCODE_OP = 0x33
OPCODE_LUI = 0x37
OPCODE_OP_32 = 0x3B
OPCODE_BRANCH = 0x63
OPCODE_JALR = 0x67
OPCODE_JAL = 0x6F
OPCODE_SYSTEM = 0x73

# funct3 tables ------------------------------------------------------------

LOAD_FUNCT3 = {"lb": 0, "lh": 1, "lw": 2, "ld": 3, "lbu": 4, "lhu": 5, "lwu": 6}
STORE_FUNCT3 = {"sb": 0, "sh": 1, "sw": 2, "sd": 3}
BRANCH_FUNCT3 = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}
OP_IMM_FUNCT3 = {
    "addi": 0, "slli": 1, "slti": 2, "sltiu": 3,
    "xori": 4, "srli": 5, "srai": 5, "ori": 6, "andi": 7,
}
OP_IMM_32_FUNCT3 = {"addiw": 0, "slliw": 1, "srliw": 5, "sraiw": 5}
# (funct3, funct7) for R-type OP instructions.
OP_FUNCT = {
    "add": (0, 0x00), "sub": (0, 0x20), "sll": (1, 0x00), "slt": (2, 0x00),
    "sltu": (3, 0x00), "xor": (4, 0x00), "srl": (5, 0x00), "sra": (5, 0x20),
    "or": (6, 0x00), "and": (7, 0x00),
    "mul": (0, 0x01), "mulh": (1, 0x01), "mulhsu": (2, 0x01),
    "mulhu": (3, 0x01), "div": (4, 0x01), "divu": (5, 0x01),
    "rem": (6, 0x01), "remu": (7, 0x01),
}
OP_32_FUNCT = {
    "addw": (0, 0x00), "subw": (0, 0x20), "sllw": (1, 0x00),
    "srlw": (5, 0x00), "sraw": (5, 0x20),
    "mulw": (0, 0x01), "divw": (4, 0x01), "divuw": (5, 0x01),
    "remw": (6, 0x01), "remuw": (7, 0x01),
}
CSR_FUNCT3 = {
    "csrrw": 1, "csrrs": 2, "csrrc": 3,
    "csrrwi": 5, "csrrsi": 6, "csrrci": 7,
}
# imm[11:0] for no-operand SYSTEM instructions.
SYSTEM_IMM = {"ecall": 0x000, "ebreak": 0x001, "sret": 0x102, "wfi": 0x105, "mret": 0x302}
SFENCE_VMA_FUNCT7 = 0x09

# Reverse tables used by the decoder.
FUNCT3_TO_LOAD = {v: k for k, v in LOAD_FUNCT3.items()}
FUNCT3_TO_STORE = {v: k for k, v in STORE_FUNCT3.items()}
FUNCT3_TO_BRANCH = {v: k for k, v in BRANCH_FUNCT3.items()}
FUNCT3_TO_CSR = {v: k for k, v in CSR_FUNCT3.items()}
FUNCT_TO_OP = {v: k for k, v in OP_FUNCT.items()}
FUNCT_TO_OP_32 = {v: k for k, v in OP_32_FUNCT.items()}
IMM_TO_SYSTEM = {v: k for k, v in SYSTEM_IMM.items()}


class EncodingError(Exception):
    """Raised when an instruction cannot be encoded (bad field ranges)."""


def _check_range(name: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise EncodingError(f"{name}={value} out of range [{low}, {high}]")


def _r_type(opcode: int, funct3: int, funct7: int, rd: int, rs1: int, rs2: int) -> int:
    return (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def _i_type(opcode: int, funct3: int, rd: int, rs1: int, imm: int) -> int:
    _check_range("imm", imm, -(1 << 11), (1 << 11) - 1)
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def _s_type(opcode: int, funct3: int, rs1: int, rs2: int, imm: int) -> int:
    _check_range("imm", imm, -(1 << 11), (1 << 11) - 1)
    imm &= 0xFFF
    return (
        (bits(imm, 11, 5) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (bits(imm, 4, 0) << 7)
        | opcode
    )


def _b_type(opcode: int, funct3: int, rs1: int, rs2: int, imm: int) -> int:
    _check_range("imm", imm, -(1 << 12), (1 << 12) - 2)
    if imm % 2:
        raise EncodingError(f"branch offset {imm} must be even")
    imm &= 0x1FFF
    return (
        (bits(imm, 12, 12) << 31)
        | (bits(imm, 10, 5) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (bits(imm, 4, 1) << 8)
        | (bits(imm, 11, 11) << 7)
        | opcode
    )


def _u_type(opcode: int, rd: int, imm: int) -> int:
    # imm is the raw 20-bit immediate field (what ends up in bits [31:12]);
    # negative values are accepted as the signed view of that field.
    _check_range("imm", imm, -(1 << 19), (1 << 20) - 1)
    return ((imm & 0xFFFFF) << 12) | (rd << 7) | opcode


def _j_type(opcode: int, rd: int, imm: int) -> int:
    _check_range("imm", imm, -(1 << 20), (1 << 20) - 2)
    if imm % 2:
        raise EncodingError(f"jump offset {imm} must be even")
    imm &= 0x1FFFFF
    return (
        (bits(imm, 20, 20) << 31)
        | (bits(imm, 10, 1) << 21)
        | (bits(imm, 11, 11) << 20)
        | (bits(imm, 19, 12) << 12)
        | (rd << 7)
        | opcode
    )


def encode(instr: Instruction) -> int:
    """Encode an :class:`Instruction` into its 32-bit word.

    Uncached: :attr:`Instruction.word` memoises the result per instance.
    """
    m = instr.mnemonic
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    for name, reg in (("rd", rd), ("rs1", rs1), ("rs2", rs2)):
        _check_range(name, reg, 0, 31)

    if m == "lui":
        return _u_type(OPCODE_LUI, rd, imm)
    if m == "auipc":
        return _u_type(OPCODE_AUIPC, rd, imm)
    if m == "jal":
        return _j_type(OPCODE_JAL, rd, imm)
    if m == "jalr":
        return _i_type(OPCODE_JALR, 0, rd, rs1, imm)
    if m in BRANCH_FUNCT3:
        return _b_type(OPCODE_BRANCH, BRANCH_FUNCT3[m], rs1, rs2, imm)
    if m in LOAD_FUNCT3:
        return _i_type(OPCODE_LOAD, LOAD_FUNCT3[m], rd, rs1, imm)
    if m in STORE_FUNCT3:
        return _s_type(OPCODE_STORE, STORE_FUNCT3[m], rs1, rs2, imm)
    if m in ("slli", "srli", "srai"):
        _check_range("shamt", imm, 0, 63)
        funct6 = 0x10 if m == "srai" else 0x00
        return _i_type(OPCODE_OP_IMM, OP_IMM_FUNCT3[m], rd, rs1, (funct6 << 6) | imm)
    if m in OP_IMM_FUNCT3:
        return _i_type(OPCODE_OP_IMM, OP_IMM_FUNCT3[m], rd, rs1, imm)
    if m in ("slliw", "srliw", "sraiw"):
        _check_range("shamt", imm, 0, 31)
        funct7 = 0x20 if m == "sraiw" else 0x00
        return _i_type(OPCODE_OP_IMM_32, OP_IMM_32_FUNCT3[m], rd, rs1, (funct7 << 5) | imm)
    if m == "addiw":
        return _i_type(OPCODE_OP_IMM_32, 0, rd, rs1, imm)
    if m in OP_FUNCT:
        funct3, funct7 = OP_FUNCT[m]
        return _r_type(OPCODE_OP, funct3, funct7, rd, rs1, rs2)
    if m in OP_32_FUNCT:
        funct3, funct7 = OP_32_FUNCT[m]
        return _r_type(OPCODE_OP_32, funct3, funct7, rd, rs1, rs2)
    if m == "fence":
        return _i_type(OPCODE_MISC_MEM, 0, 0, 0, imm)
    if m == "fence.i":
        return _i_type(OPCODE_MISC_MEM, 1, 0, 0, 0)
    if m in SYSTEM_IMM:
        return _i_type(OPCODE_SYSTEM, 0, 0, 0, SYSTEM_IMM[m])
    if m == "sfence.vma":
        return _r_type(OPCODE_SYSTEM, 0, SFENCE_VMA_FUNCT7, 0, rs1, rs2)
    if m in CSR_FUNCT3:
        _check_range("csr", instr.csr, 0, 0xFFF)
        if instr.csr_uses_immediate:
            _check_range("zimm", rs1, 0, 31)
        return (instr.csr << 20) | (rs1 << 15) | (CSR_FUNCT3[m] << 12) | (rd << 7) | OPCODE_SYSTEM
    raise EncodingError(f"unknown mnemonic {m!r}")
