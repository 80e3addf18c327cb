"""Trap taking, delegation, and xRET semantics of the reference machine."""

from __future__ import annotations

from typing import NamedTuple

from repro.isa import constants as c
from repro.isa.bits import get_field, set_field
from repro.spec.state import MachineState


class Trap(NamedTuple):
    """A trap about to be delivered.

    Immutable; a tuple rather than a frozen dataclass because one is built
    on every trap, and a tuple costs no per-field ``object.__setattr__``.
    """

    cause: int  # exception code or interrupt number (without the bit 63 flag)
    is_interrupt: bool = False
    tval: int = 0

    @property
    def mcause_value(self) -> int:
        return (c.INTERRUPT_BIT | self.cause) if self.is_interrupt else self.cause

    def __str__(self) -> str:
        kind, names = (
            ("interrupt", c.InterruptCause) if self.is_interrupt
            else ("exception", c.TrapCause)
        )
        try:
            return f"{kind} {names(self.cause).name}"
        except ValueError:
            return f"{kind} code {self.cause}"


# take_trap's constants, bound once: it runs on every trap.
# mstatus fields take_trap rewrites, per target mode.
_M_TRAP_FIELDS = c.MSTATUS_MPP | c.MSTATUS_MPIE | c.MSTATUS_MIE
_S_TRAP_FIELDS = c.MSTATUS_SPP | c.MSTATUS_SPIE | c.MSTATUS_SIE
# xIE sits four bits below xPIE in mstatus, for both M and S.
_PIE_SHIFT = 4
_M_MODE = c.M_MODE
_S_MODE = c.S_MODE
_M = int(_M_MODE)
_MPP_SHIFT = c.MSTATUS_MPP_SHIFT
_SPP_SHIFT = c.MSTATUS_SPP_SHIFT
_MSTATUS_MIE = c.MSTATUS_MIE
_MSTATUS_SIE = c.MSTATUS_SIE
_INTERRUPT_BIT = c.INTERRUPT_BIT
_CSR_MTVAL = c.CSR_MTVAL
_CSR_STVAL = c.CSR_STVAL
_XMASK = c.XMASK
_TVEC_BASE_MASK = c.TVEC_BASE_MASK
_TVEC_MODE_MASK = c.TVEC_MODE_MASK
_VECTORED = int(c.TvecMode.VECTORED)


def take_trap(state: MachineState, trap: Trap) -> c.PrivilegeLevel:
    """Deliver a trap: update xepc/xcause/xtval/mstatus, jump to the vector.

    Traps from M-mode always go to M-mode; traps from S/U-mode go to S-mode
    when the corresponding medeleg/mideleg bit is set.  Returns the
    privilege mode the trap was taken to.
    """
    cause, is_interrupt, tval = trap
    csr = state.csr
    mode = int(state.mode)
    if mode == _M:
        target = _M_MODE
    elif (csr.mideleg if is_interrupt else csr.medeleg) & (1 << cause):
        target = _S_MODE
    else:
        target = _M_MODE
    mcause = (_INTERRUPT_BIT | cause) if is_interrupt else cause
    mstatus = csr.mstatus
    # xtval is plain storage with a full-width mask: stored directly, as
    # ``CsrFile.write`` would store it.
    if target is _M_MODE:
        csr.mepc = state.pc & ~0x3
        csr.mcause = mcause
        csr._simple[_CSR_MTVAL] = tval & _XMASK
        # MPP = mode, MPIE = MIE, MIE = 0.
        mstatus = (
            (mstatus & ~_M_TRAP_FIELDS)
            | (mode << _MPP_SHIFT)
            | ((mstatus & _MSTATUS_MIE) << _PIE_SHIFT)
        )
        tvec = csr.mtvec
    else:
        csr.sepc = state.pc & ~0x3
        csr.scause = mcause
        csr._simple[_CSR_STVAL] = tval & _XMASK
        # SPP = mode & 1, SPIE = SIE, SIE = 0.
        mstatus = (
            (mstatus & ~_S_TRAP_FIELDS)
            | ((mode & 1) << _SPP_SHIFT)
            | ((mstatus & _MSTATUS_SIE) << _PIE_SHIFT)
        )
        tvec = csr.stvec
    pc = tvec & _TVEC_BASE_MASK
    if is_interrupt and (tvec & _TVEC_MODE_MASK) == _VECTORED:
        pc += 4 * cause
    state.pc = pc
    # Bypass legalization: trap delivery may set any MPP among supported.
    csr.mstatus = mstatus & _XMASK
    state.mode = target
    state.waiting_for_interrupt = False
    return target


def execute_mret(state: MachineState) -> None:
    """``mret`` semantics: return from an M-mode trap handler."""
    mstatus = state.csr.mstatus
    previous = c.PrivilegeLevel(get_field(mstatus, c.MSTATUS_MPP))
    mpie = get_field(mstatus, c.MSTATUS_MPIE)
    mstatus = set_field(mstatus, c.MSTATUS_MIE, mpie)
    mstatus = set_field(mstatus, c.MSTATUS_MPIE, 1)
    mstatus = set_field(mstatus, c.MSTATUS_MPP, int(c.U_MODE))
    if previous != c.M_MODE:
        mstatus &= ~c.MSTATUS_MPRV
    state.csr.mstatus = mstatus
    state.mode = previous
    state.pc = state.csr.mepc


def execute_sret(state: MachineState) -> None:
    """``sret`` semantics: return from an S-mode trap handler."""
    mstatus = state.csr.mstatus
    previous = c.PrivilegeLevel(get_field(mstatus, c.MSTATUS_SPP))
    spie = get_field(mstatus, c.MSTATUS_SPIE)
    mstatus = set_field(mstatus, c.MSTATUS_SIE, spie)
    mstatus = set_field(mstatus, c.MSTATUS_SPIE, 1)
    mstatus = set_field(mstatus, c.MSTATUS_SPP, int(c.U_MODE))
    if previous != c.M_MODE:  # always true for sret; kept for symmetry
        mstatus &= ~c.MSTATUS_MPRV
    state.csr.mstatus = mstatus
    state.mode = previous
    state.pc = state.csr.sepc
