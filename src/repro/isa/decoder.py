"""Binary decoder for RV64 instructions.

``decode`` is the exact inverse of :func:`repro.isa.encoding.encode` for all
supported instructions, and raises :class:`IllegalInstructionError` on any
word outside the supported set (including 16-bit compressed encodings, which
the simulated platforms do not use — see DESIGN.md).

This decoder plays the role of the 45-second-verified "instruction decoder"
of Table 2 in the paper: the verification harness checks it against the
encoder over the full mnemonic space and against structured random words.
"""

from __future__ import annotations

from functools import lru_cache

from repro.isa.bits import bits, to_signed
from repro.perf import register_cache, register_stats_provider
from repro.isa.encoding import (
    FUNCT3_TO_BRANCH,
    FUNCT3_TO_CSR,
    FUNCT3_TO_LOAD,
    FUNCT3_TO_STORE,
    FUNCT_TO_OP,
    FUNCT_TO_OP_32,
    IMM_TO_SYSTEM,
    OPCODE_AUIPC,
    OPCODE_BRANCH,
    OPCODE_JAL,
    OPCODE_JALR,
    OPCODE_LOAD,
    OPCODE_LUI,
    OPCODE_MISC_MEM,
    OPCODE_OP,
    OPCODE_OP_32,
    OPCODE_OP_IMM,
    OPCODE_OP_IMM_32,
    OPCODE_STORE,
    OPCODE_SYSTEM,
    SFENCE_VMA_FUNCT7,
)
from repro.isa.instructions import IllegalInstructionError, Instruction


def _decode_i_imm(word: int) -> int:
    return to_signed(bits(word, 31, 20), 12)


def _decode_s_imm(word: int) -> int:
    return to_signed((bits(word, 31, 25) << 5) | bits(word, 11, 7), 12)


def _decode_b_imm(word: int) -> int:
    imm = (
        (bits(word, 31, 31) << 12)
        | (bits(word, 7, 7) << 11)
        | (bits(word, 30, 25) << 5)
        | (bits(word, 11, 8) << 1)
    )
    return to_signed(imm, 13)


def _decode_u_imm(word: int) -> int:
    # Keep the raw 20-bit field; execution shifts it into place.
    return bits(word, 31, 12)


def _decode_j_imm(word: int) -> int:
    imm = (
        (bits(word, 31, 31) << 20)
        | (bits(word, 19, 12) << 12)
        | (bits(word, 20, 20) << 11)
        | (bits(word, 30, 21) << 1)
    )
    return to_signed(imm, 21)


def _decode_system(word: int, rd: int, rs1: int, rs2: int, funct3: int) -> Instruction:
    if funct3 == 0:
        funct7 = bits(word, 31, 25)
        if funct7 == SFENCE_VMA_FUNCT7 and rd == 0:
            return Instruction("sfence.vma", rs1=rs1, rs2=rs2)
        imm12 = bits(word, 31, 20)
        mnemonic = IMM_TO_SYSTEM.get(imm12)
        if mnemonic is None or rd != 0 or rs1 != 0:
            raise IllegalInstructionError(word, "unknown SYSTEM encoding")
        return Instruction(mnemonic)
    mnemonic = FUNCT3_TO_CSR.get(funct3)
    if mnemonic is None:
        raise IllegalInstructionError(word, "unknown SYSTEM funct3")
    return Instruction(mnemonic, rd=rd, rs1=rs1, csr=bits(word, 31, 20))


def _decode_op_imm(word: int, rd: int, rs1: int, funct3: int) -> Instruction:
    if funct3 == 1:  # slli
        if bits(word, 31, 26) != 0:
            raise IllegalInstructionError(word, "bad slli funct6")
        return Instruction("slli", rd=rd, rs1=rs1, imm=bits(word, 25, 20))
    if funct3 == 5:  # srli / srai
        funct6 = bits(word, 31, 26)
        if funct6 == 0x00:
            return Instruction("srli", rd=rd, rs1=rs1, imm=bits(word, 25, 20))
        if funct6 == 0x10:
            return Instruction("srai", rd=rd, rs1=rs1, imm=bits(word, 25, 20))
        raise IllegalInstructionError(word, "bad shift funct6")
    names = {0: "addi", 2: "slti", 3: "sltiu", 4: "xori", 6: "ori", 7: "andi"}
    return Instruction(names[funct3], rd=rd, rs1=rs1, imm=_decode_i_imm(word))


def _decode_op_imm_32(word: int, rd: int, rs1: int, funct3: int) -> Instruction:
    if funct3 == 0:
        return Instruction("addiw", rd=rd, rs1=rs1, imm=_decode_i_imm(word))
    if funct3 == 1:
        if bits(word, 31, 25) != 0:
            raise IllegalInstructionError(word, "bad slliw funct7")
        return Instruction("slliw", rd=rd, rs1=rs1, imm=bits(word, 24, 20))
    if funct3 == 5:
        funct7 = bits(word, 31, 25)
        shamt = bits(word, 24, 20)
        if funct7 == 0x00:
            return Instruction("srliw", rd=rd, rs1=rs1, imm=shamt)
        if funct7 == 0x20:
            return Instruction("sraiw", rd=rd, rs1=rs1, imm=shamt)
        raise IllegalInstructionError(word, "bad 32-bit shift funct7")
    raise IllegalInstructionError(word, "unknown OP-IMM-32 funct3")


def _decode_word(word: int) -> Instruction:
    if word & 0x3 != 0x3:
        raise IllegalInstructionError(word, "compressed encodings unsupported")

    opcode = bits(word, 6, 0)
    rd = bits(word, 11, 7)
    funct3 = bits(word, 14, 12)
    rs1 = bits(word, 19, 15)
    rs2 = bits(word, 24, 20)

    if opcode == OPCODE_LUI:
        return Instruction("lui", rd=rd, imm=_decode_u_imm(word))
    if opcode == OPCODE_AUIPC:
        return Instruction("auipc", rd=rd, imm=_decode_u_imm(word))
    if opcode == OPCODE_JAL:
        return Instruction("jal", rd=rd, imm=_decode_j_imm(word))
    if opcode == OPCODE_JALR:
        if funct3 != 0:
            raise IllegalInstructionError(word, "bad jalr funct3")
        return Instruction("jalr", rd=rd, rs1=rs1, imm=_decode_i_imm(word))
    if opcode == OPCODE_BRANCH:
        mnemonic = FUNCT3_TO_BRANCH.get(funct3)
        if mnemonic is None:
            raise IllegalInstructionError(word, "unknown branch funct3")
        return Instruction(mnemonic, rs1=rs1, rs2=rs2, imm=_decode_b_imm(word))
    if opcode == OPCODE_LOAD:
        mnemonic = FUNCT3_TO_LOAD.get(funct3)
        if mnemonic is None:
            raise IllegalInstructionError(word, "unknown load funct3")
        return Instruction(mnemonic, rd=rd, rs1=rs1, imm=_decode_i_imm(word))
    if opcode == OPCODE_STORE:
        mnemonic = FUNCT3_TO_STORE.get(funct3)
        if mnemonic is None:
            raise IllegalInstructionError(word, "unknown store funct3")
        return Instruction(mnemonic, rs1=rs1, rs2=rs2, imm=_decode_s_imm(word))
    if opcode == OPCODE_OP_IMM:
        return _decode_op_imm(word, rd, rs1, funct3)
    if opcode == OPCODE_OP_IMM_32:
        return _decode_op_imm_32(word, rd, rs1, funct3)
    if opcode == OPCODE_OP:
        funct7 = bits(word, 31, 25)
        mnemonic = FUNCT_TO_OP.get((funct3, funct7))
        if mnemonic is None:
            raise IllegalInstructionError(word, "unknown OP funct")
        return Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == OPCODE_OP_32:
        funct7 = bits(word, 31, 25)
        mnemonic = FUNCT_TO_OP_32.get((funct3, funct7))
        if mnemonic is None:
            raise IllegalInstructionError(word, "unknown OP-32 funct")
        return Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == OPCODE_MISC_MEM:
        if funct3 == 0:
            return Instruction("fence", imm=_decode_i_imm(word))
        if funct3 == 1:
            return Instruction("fence.i")
        raise IllegalInstructionError(word, "unknown MISC-MEM funct3")
    if opcode == OPCODE_SYSTEM:
        return _decode_system(word, rd, rs1, rs2, funct3)
    raise IllegalInstructionError(word, f"unknown opcode {opcode:#x}")


# Decoding is a pure function of the word and Instruction is immutable, so
# memoizing is safe; illegal words are not cached (lru_cache does not cache
# raised exceptions), which keeps error paths exact.
_decode_cached = lru_cache(maxsize=1 << 16)(_decode_word)
register_cache(_decode_cached.cache_clear)
register_stats_provider(
    "isa.decode", lambda: _decode_cached.cache_info()._asdict()
)


def decode(word: int) -> Instruction:
    """Decode a 32-bit instruction word.

    Raises :class:`IllegalInstructionError` for unsupported or malformed
    encodings; the spec and the emulator both surface this as an
    illegal-instruction exception to the executing hart.
    """
    return _decode_cached(word & 0xFFFFFFFF)
