"""The reference transition function: ``hw : C x S x I -> S``.

:func:`execute_instruction` executes one decoded instruction on a
:class:`~repro.spec.state.MachineState`, including trap delivery, and
returns an :class:`Outcome` describing what happened.  Fixing the platform
configuration turns this specification into a simulator (used by
:mod:`repro.hart`), exactly as the paper notes the Sail model can be used.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Protocol

from repro.isa import constants as c
from repro.isa.bits import get_field, sign_extend, to_signed, to_u64
from repro.isa.instructions import (
    LOAD_SIGNED,
    Instruction,
)
from repro.perf import register_cache
from repro.spec.pmp import pmp_check
from repro.spec.state import MachineState
from repro.spec.traps import Trap, execute_mret, execute_sret, take_trap


class Bus(Protocol):
    """Physical memory interface used by the specification."""

    def read(self, address: int, size: int) -> int: ...

    def write(self, address: int, size: int, value: int) -> None: ...


class BusError(Exception):
    """Raised by a bus for accesses to unmapped or faulting addresses."""


class MemoryAccess(NamedTuple):
    """A physical memory access performed by an instruction."""

    access_type: c.AccessType
    address: int
    size: int


class Outcome(NamedTuple):
    """Result of executing one instruction (immutable, like its fields)."""

    trap: Optional[Trap] = None
    memory_access: Optional[MemoryAccess] = None
    is_wfi: bool = False
    is_fence: bool = False

    @property
    def trapped(self) -> bool:
        return self.trap is not None


# Shared no-trap outcomes: ``Outcome`` is immutable, so one instance serves
# every instruction that ends the same way.
_COMMITTED = Outcome()
_WFI = Outcome(is_wfi=True)
_FENCE = Outcome(is_fence=True)


@lru_cache(maxsize=1 << 12)
def _illegal_outcome(word: int) -> Outcome:
    """The illegal-instruction outcome of ``word``, shared the same way:
    under a monitor, every privileged instruction the firmware runs traps
    with the same (immutable) Trap and Outcome each time."""
    return Outcome(trap=Trap(c.TrapCause.ILLEGAL_INSTRUCTION, tval=word))


register_cache(_illegal_outcome.cache_clear)


# ---------------------------------------------------------------------------
# CSR access rules
# ---------------------------------------------------------------------------

_COUNTER_ENABLE_BITS = {c.CSR_CYCLE: 0, c.CSR_TIME: 1, c.CSR_INSTRET: 2}


def csr_access_allowed(
    state: MachineState, csr: int, is_write: bool
) -> bool:
    """Whether the current mode may access a CSR (illegal instruction if not)."""
    csr_file = state.csr
    entry = csr_file.table.get(csr)
    if entry is None or (is_write and entry.read_only):
        return False
    mode = state.mode
    if mode < entry.min_privilege:
        return False
    if csr == c.CSR_SATP and mode == c.S_MODE and csr_file.mstatus & c.MSTATUS_TVM:
        return False
    if csr in _COUNTER_ENABLE_BITS or c.CSR_HPMCOUNTER3 <= csr < c.CSR_HPMCOUNTER3 + 29:
        bit = _COUNTER_ENABLE_BITS.get(csr, csr - c.CSR_CYCLE)
        if mode < c.M_MODE and not (csr_file.read(c.CSR_MCOUNTEREN) >> bit) & 1:
            return False
        if mode < c.S_MODE and not (csr_file.read(c.CSR_SCOUNTEREN) >> bit) & 1:
            return False
    if csr == c.CSR_STIMECMP and mode == c.S_MODE:
        if not csr_file.menvcfg & c.MENVCFG_STCE:
            return False
    return True


def _execute_csr(state: MachineState, instr: Instruction) -> Optional[Outcome]:
    """Zicsr semantics.  Returns the trapping outcome instead of
    committing on failure."""
    mnemonic = instr.mnemonic
    writes = not (
        mnemonic in ("csrrs", "csrrc", "csrrsi", "csrrci") and instr.rs1 == 0
    )
    if not csr_access_allowed(state, instr.csr, writes):
        return _illegal_outcome(instr.word)
    old = state.csr.read(instr.csr)
    if instr.csr_uses_immediate:
        operand = instr.rs1  # zimm
    else:
        operand = state.get_xreg(instr.rs1)
    if writes:
        if mnemonic in ("csrrw", "csrrwi"):
            new = operand
        elif mnemonic in ("csrrs", "csrrsi"):
            new = old | operand
        else:  # csrrc / csrrci
            new = old & ~operand
        state.csr.write(instr.csr, new)
    state.set_xreg(instr.rd, old)
    return None


# ---------------------------------------------------------------------------
# Integer ALU
# ---------------------------------------------------------------------------


def _div(a: int, b: int) -> int:
    if b == 0:
        return -1
    if a == -(1 << 63) and b == -1:
        return a
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _rem(a: int, b: int) -> int:
    if b == 0:
        return a
    if a == -(1 << 63) and b == -1:
        return 0
    return a - _div(a, b) * b


def _alu(state: MachineState, instr: Instruction) -> None:
    m = instr.mnemonic
    rs1 = state.get_xreg(instr.rs1)
    rs2 = state.get_xreg(instr.rs2)
    s1, s2 = to_signed(rs1), to_signed(rs2)
    imm = instr.imm

    if m == "lui":
        result = sign_extend(instr.imm << 12, 32)
    elif m == "auipc":
        result = to_u64(state.pc + sign_extend(instr.imm << 12, 32))
    elif m == "addi":
        result = rs1 + imm
    elif m == "slti":
        result = int(s1 < imm)
    elif m == "sltiu":
        result = int(rs1 < to_u64(imm))
    elif m == "xori":
        result = rs1 ^ to_u64(imm)
    elif m == "ori":
        result = rs1 | to_u64(imm)
    elif m == "andi":
        result = rs1 & to_u64(imm)
    elif m == "slli":
        result = rs1 << imm
    elif m == "srli":
        result = rs1 >> imm
    elif m == "srai":
        result = s1 >> imm
    elif m == "addiw":
        result = sign_extend(rs1 + imm, 32)
    elif m == "slliw":
        result = sign_extend(rs1 << imm, 32)
    elif m == "srliw":
        result = sign_extend((rs1 & 0xFFFFFFFF) >> imm, 32)
    elif m == "sraiw":
        result = sign_extend(to_signed(rs1, 32) >> imm, 32)
    elif m == "add":
        result = rs1 + rs2
    elif m == "sub":
        result = rs1 - rs2
    elif m == "sll":
        result = rs1 << (rs2 & 0x3F)
    elif m == "slt":
        result = int(s1 < s2)
    elif m == "sltu":
        result = int(rs1 < rs2)
    elif m == "xor":
        result = rs1 ^ rs2
    elif m == "srl":
        result = rs1 >> (rs2 & 0x3F)
    elif m == "sra":
        result = s1 >> (rs2 & 0x3F)
    elif m == "or":
        result = rs1 | rs2
    elif m == "and":
        result = rs1 & rs2
    elif m == "addw":
        result = sign_extend(rs1 + rs2, 32)
    elif m == "subw":
        result = sign_extend(rs1 - rs2, 32)
    elif m == "sllw":
        result = sign_extend(rs1 << (rs2 & 0x1F), 32)
    elif m == "srlw":
        result = sign_extend((rs1 & 0xFFFFFFFF) >> (rs2 & 0x1F), 32)
    elif m == "sraw":
        result = sign_extend(to_signed(rs1, 32) >> (rs2 & 0x1F), 32)
    elif m == "mul":
        result = rs1 * rs2
    elif m == "mulh":
        result = (s1 * s2) >> 64
    elif m == "mulhsu":
        result = (s1 * rs2) >> 64
    elif m == "mulhu":
        result = (rs1 * rs2) >> 64
    elif m == "div":
        result = _div(s1, s2)
    elif m == "divu":
        result = (rs1 // rs2) if rs2 else c.XMASK
    elif m == "rem":
        result = _rem(s1, s2)
    elif m == "remu":
        result = (rs1 % rs2) if rs2 else rs1
    elif m == "mulw":
        result = sign_extend(rs1 * rs2, 32)
    elif m == "divw":
        result = sign_extend(_div(to_signed(rs1, 32), to_signed(rs2, 32)), 32)
    elif m == "divuw":
        a, b = rs1 & 0xFFFFFFFF, rs2 & 0xFFFFFFFF
        result = sign_extend(a // b if b else 0xFFFFFFFF, 32)
    elif m == "remw":
        result = sign_extend(_rem(to_signed(rs1, 32), to_signed(rs2, 32)), 32)
    elif m == "remuw":
        a, b = rs1 & 0xFFFFFFFF, rs2 & 0xFFFFFFFF
        result = sign_extend(a % b if b else a, 32)
    else:
        raise AssertionError(f"not an ALU instruction: {m}")
    state.set_xreg(instr.rd, result)


_BRANCH_TAKEN = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

_ALU_MNEMONICS = frozenset(
    {
        "lui", "auipc", "addi", "slti", "sltiu", "xori", "ori", "andi",
        "slli", "srli", "srai", "addiw", "slliw", "srliw", "sraiw",
        "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
        "addw", "subw", "sllw", "srlw", "sraw",
        "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
        "mulw", "divw", "divuw", "remw", "remuw",
    }
)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def effective_memory_mode(state: MachineState) -> c.PrivilegeLevel:
    """Effective privilege for loads/stores, honouring mstatus.MPRV."""
    mstatus = state.csr.mstatus
    if mstatus & c.MSTATUS_MPRV:
        return c.PrivilegeLevel(get_field(mstatus, c.MSTATUS_MPP))
    return state.mode


def check_memory_access(
    state: MachineState, address: int, size: int, access: c.AccessType
) -> Optional[Trap]:
    """Alignment + PMP check for one access; returns the trap on failure."""
    if address % size and not state.config.has_hw_misaligned:
        cause = (
            c.TrapCause.LOAD_ADDRESS_MISALIGNED
            if access == c.AccessType.READ
            else c.TrapCause.STORE_ADDRESS_MISALIGNED
        )
        return Trap(cause, tval=address)
    mode = (
        effective_memory_mode(state)
        if access != c.AccessType.EXECUTE
        else state.mode
    )
    result = pmp_check(
        state.csr.pmpcfg,
        state.csr.pmpaddr,
        address,
        size,
        access,
        mode,
        pmp_count=state.config.pmp_count,
    )
    if not result.allowed:
        if access == c.AccessType.READ:
            cause = c.TrapCause.LOAD_ACCESS_FAULT
        elif access == c.AccessType.WRITE:
            cause = c.TrapCause.STORE_ACCESS_FAULT
        else:
            cause = c.TrapCause.INSTRUCTION_ACCESS_FAULT
        return Trap(cause, tval=address)
    return None


def _execute_memory(
    state: MachineState, instr: Instruction, bus: Bus
) -> tuple[Optional[Trap], Optional[MemoryAccess]]:
    size = instr.memory_size
    address = to_u64(state.get_xreg(instr.rs1) + instr.imm)
    access = c.AccessType.READ if instr.is_load else c.AccessType.WRITE
    trap = check_memory_access(state, address, size, access)
    if trap is not None:
        return trap, None
    try:
        if instr.is_load:
            raw = bus.read(address, size)
            if LOAD_SIGNED[instr.mnemonic]:
                raw = sign_extend(raw, size * 8)
            state.set_xreg(instr.rd, raw)
        else:
            value = state.get_xreg(instr.rs2) & ((1 << (size * 8)) - 1)
            bus.write(address, size, value)
    except BusError:
        cause = (
            c.TrapCause.LOAD_ACCESS_FAULT
            if instr.is_load
            else c.TrapCause.STORE_ACCESS_FAULT
        )
        return Trap(cause, tval=address), None
    return None, MemoryAccess(access, address, size)


# ---------------------------------------------------------------------------
# System instructions
# ---------------------------------------------------------------------------


_ECALL_CAUSE = {
    c.U_MODE: c.TrapCause.ECALL_FROM_U,
    c.S_MODE: c.TrapCause.ECALL_FROM_S,
    c.M_MODE: c.TrapCause.ECALL_FROM_M,
}


def _execute_system(state: MachineState, instr: Instruction) -> Outcome:
    m = instr.mnemonic
    mode = state.mode
    mstatus = state.csr.mstatus
    if m == "ecall":
        return Outcome(trap=Trap(_ECALL_CAUSE[mode]))
    if m == "ebreak":
        return Outcome(trap=Trap(c.TrapCause.BREAKPOINT, tval=state.pc))
    if m == "mret":
        if mode != c.M_MODE:
            return _illegal_outcome(instr.word)
        execute_mret(state)
        return _COMMITTED
    if m == "sret":
        if mode == c.U_MODE:
            return _illegal_outcome(instr.word)
        if mode == c.S_MODE and mstatus & c.MSTATUS_TSR:
            return _illegal_outcome(instr.word)
        execute_sret(state)
        return _COMMITTED
    if m == "wfi":
        if mode == c.U_MODE:
            return _illegal_outcome(instr.word)
        if mode == c.S_MODE and mstatus & c.MSTATUS_TW:
            return _illegal_outcome(instr.word)
        state.waiting_for_interrupt = True
        state.pc = to_u64(state.pc + 4)
        return _WFI
    if m == "sfence.vma":
        if mode == c.U_MODE:
            return _illegal_outcome(instr.word)
        if mode == c.S_MODE and mstatus & c.MSTATUS_TVM:
            return _illegal_outcome(instr.word)
        state.pc = to_u64(state.pc + 4)
        return _FENCE
    raise AssertionError(f"not a system instruction: {m}")


# ---------------------------------------------------------------------------
# Top-level transition
# ---------------------------------------------------------------------------


class _NullBus:
    """Bus that faults on every access (for memory-free verification runs)."""

    def read(self, address: int, size: int) -> int:
        raise BusError(f"no bus: read {size}B @ {address:#x}")

    def write(self, address: int, size: int, value: int) -> None:
        raise BusError(f"no bus: write {size}B @ {address:#x}")


NULL_BUS = _NullBus()


def execute_instruction(
    state: MachineState, instr: Instruction, bus: Bus = NULL_BUS
) -> Outcome:
    """Execute one instruction, including trap delivery.

    On return, ``state`` reflects the full architectural effect: either the
    instruction committed, or the trap was delivered (xepc/xcause/mstatus
    updated, pc at the trap vector).
    """
    m = instr.mnemonic

    if m in _ALU_MNEMONICS:
        _alu(state, instr)
        state.pc = to_u64(state.pc + 4)
        return _COMMITTED

    if m == "jal":
        target = to_u64(state.pc + instr.imm)
        state.set_xreg(instr.rd, to_u64(state.pc + 4))
        state.pc = target
        return _COMMITTED
    if m == "jalr":
        target = to_u64(state.get_xreg(instr.rs1) + instr.imm) & ~1
        state.set_xreg(instr.rd, to_u64(state.pc + 4))
        state.pc = target
        return _COMMITTED
    if m in _BRANCH_TAKEN:
        taken = _BRANCH_TAKEN[m](state.get_xreg(instr.rs1), state.get_xreg(instr.rs2))
        state.pc = to_u64(state.pc + (instr.imm if taken else 4))
        return _COMMITTED

    if instr.is_load or instr.is_store:
        trap, access = _execute_memory(state, instr, bus)
        if trap is not None:
            take_trap(state, trap)
            return Outcome(trap=trap, memory_access=access)
        state.pc = to_u64(state.pc + 4)
        return Outcome(memory_access=access)

    if instr.is_csr_op:
        outcome = _execute_csr(state, instr)
        if outcome is not None:
            take_trap(state, outcome.trap)
            return outcome
        state.pc = to_u64(state.pc + 4)
        return _COMMITTED

    if m in ("fence", "fence.i"):
        state.pc = to_u64(state.pc + 4)
        return _FENCE if m == "fence.i" else _COMMITTED

    if m in ("ecall", "ebreak", "mret", "sret", "wfi", "sfence.vma"):
        outcome = _execute_system(state, instr)
        if outcome.trap is not None:
            take_trap(state, outcome.trap)
        return outcome

    raise AssertionError(f"unhandled mnemonic {m!r}")


# Alias matching the paper's notation.
hw_step = execute_instruction
