"""Instruction representation shared by the decoder, assembler, and emulators.

An :class:`Instruction` is the decoded form of a 32-bit RV64 instruction.
The same representation is consumed by the reference specification
(:mod:`repro.spec`) and by Miralis's privileged-instruction emulator
(:mod:`repro.core.emulator`), mirroring how both the Sail model and the Rust
emulator in the paper operate on decoded instructions.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property, lru_cache

from repro.isa.bits import sign_extend

# Register ABI names, indexed by register number.
ABI_NAMES = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)

REGISTER_NUMBERS = {name: index for index, name in enumerate(ABI_NAMES)}
REGISTER_NUMBERS.update({f"x{i}": i for i in range(32)})
REGISTER_NUMBERS["fp"] = 8


CSR_MNEMONICS = frozenset(
    {"csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"}
)

LOAD_MNEMONICS = frozenset({"lb", "lh", "lw", "ld", "lbu", "lhu", "lwu"})
STORE_MNEMONICS = frozenset({"sb", "sh", "sw", "sd"})

LOAD_SIZES = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4, "ld": 8}
STORE_SIZES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}
LOAD_SIGNED = {"lb": True, "lh": True, "lw": True, "ld": True,
               "lbu": False, "lhu": False, "lwu": False}


@dataclasses.dataclass(frozen=True)
class Instruction:
    """A decoded RV64 instruction.

    Fields not used by a given mnemonic are zero.  ``imm`` is stored
    sign-extended as a Python int (may be negative); ``csr`` is the 12-bit
    CSR address for Zicsr instructions.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = 0

    # Classification predicates are cached per instance: instructions are
    # immutable and the interpreter's hot loop queries them on every
    # executed instruction.  ``cached_property`` writes straight into the
    # instance ``__dict__``, which bypasses the frozen-dataclass setattr
    # guard without weakening it for the declared fields.

    @cached_property
    def is_csr_op(self) -> bool:
        return self.mnemonic in CSR_MNEMONICS

    @cached_property
    def is_load(self) -> bool:
        return self.mnemonic in LOAD_MNEMONICS

    @cached_property
    def is_store(self) -> bool:
        return self.mnemonic in STORE_MNEMONICS

    @cached_property
    def memory_size(self) -> int:
        """Access size in bytes for load/store instructions."""
        if self.is_load:
            return LOAD_SIZES[self.mnemonic]
        if self.is_store:
            return STORE_SIZES[self.mnemonic]
        raise ValueError(f"{self.mnemonic} is not a memory access")

    def extend_loaded(self, value: int) -> int:
        """A value this load read, as it lands in ``rd`` (lb/lh/lw
        sign-extend it to 64 bits)."""
        if self.mnemonic in ("lb", "lh", "lw"):
            return sign_extend(value, 8 * self.memory_size)
        return value

    @cached_property
    def csr_uses_immediate(self) -> bool:
        """Whether a CSR instruction takes a 5-bit immediate (csrr?i forms)."""
        return self.mnemonic in ("csrrwi", "csrrsi", "csrrci")

    @cached_property
    def word(self) -> int:
        """The 32-bit encoding.  Interned instructions are re-executed on
        every trap, so later reads find the word without a call."""
        from repro.isa.encoding import encode

        return encode(self)

    def __str__(self) -> str:
        if self.is_csr_op:
            src = f"{self.rs1}" if self.csr_uses_immediate else ABI_NAMES[self.rs1]
            return f"{self.mnemonic} {ABI_NAMES[self.rd]}, {self.csr:#x}, {src}"
        if self.is_load:
            return f"{self.mnemonic} {ABI_NAMES[self.rd]}, {self.imm}({ABI_NAMES[self.rs1]})"
        if self.is_store:
            return f"{self.mnemonic} {ABI_NAMES[self.rs2]}, {self.imm}({ABI_NAMES[self.rs1]})"
        return (
            f"{self.mnemonic} rd={ABI_NAMES[self.rd]} rs1={ABI_NAMES[self.rs1]} "
            f"rs2={ABI_NAMES[self.rs2]} imm={self.imm}"
        )


@lru_cache(maxsize=1 << 16)
def make_instruction(
    mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0,
    imm: int = 0, csr: int = 0,
) -> Instruction:
    """Interning constructor used by the assembler and program builders.

    Instructions are immutable value objects, so repeated builds of the
    same operands can share one instance (and its cached classification
    properties).  Purely ISA-level: no machine or virtualized state is
    ever reachable from an interned instruction.
    """
    return Instruction(mnemonic, rd, rs1, rs2, imm, csr)


class IllegalInstructionError(Exception):
    """Raised when a 32-bit word does not decode to a supported instruction."""

    def __init__(self, word: int, reason: str = "unsupported encoding"):
        self.word = word
        self.reason = reason
        super().__init__(f"illegal instruction {word:#010x}: {reason}")


# Registered at the bottom so the module's public names exist first.
from repro.perf import register_cache, register_stats_provider  # noqa: E402

register_cache(make_instruction.cache_clear)
register_stats_provider(
    "isa.intern", lambda: make_instruction.cache_info()._asdict()
)
