"""Privileged-instruction emulator (Figure 4's central green box).

Executes the firmware's trapped privileged instructions against the shadow
state.  Together with :mod:`repro.core.csr_emul` this is the biggest
subsystem of the monitor and the primary target of the faithful-emulation
verification (§6.2): for every privileged instruction, running this
emulator on the VirtContext must produce the same state a reference
machine would.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core import bugs
from repro.core.csr_emul import CsrEffect, VirtCsrError, read_csr, write_csr
from repro.core.vcpu import VirtContext
from repro.isa import constants as c
from repro.isa.instructions import Instruction

U64 = (1 << 64) - 1


class EmulationResult(NamedTuple):
    """Outcome of emulating one privileged instruction.

    Immutable; a tuple because one is built on every emulated
    instruction, and a tuple's constructor is cheaper than a dataclass's.
    """

    #: Physical pc at which the firmware resumes (None when the result is a
    #: world switch, whose resume point the world-switch code decides).
    next_pc: Optional[int] = None
    #: Virtual privilege mode after the instruction; a value below M means
    #: the firmware executed a virtual xRET into the OS (world switch).
    new_virtual_mode: c.PrivilegeLevel = c.M_MODE
    #: Physical side effects to apply (PMP reinstall, interrupt sync).
    effects: CsrEffect = CsrEffect.NONE
    #: The instruction was a WFI: the monitor should wait for a virtual
    #: interrupt before resuming the firmware.
    is_wfi: bool = False
    #: A fence that must be applied physically.
    is_fence: bool = False

    @property
    def world_switch(self) -> bool:
        return self.new_virtual_mode != c.M_MODE


class VirtualTrapError(Exception):
    """The instruction must be re-injected as a virtual trap into vM-mode.

    Carries the virtual cause/tval, e.g. an illegal CSR access or an
    environment call from virtual M-mode.
    """

    def __init__(self, cause: int, tval: int = 0):
        self.cause = cause
        self.tval = tval
        super().__init__(f"virtual trap cause={cause} tval={tval:#x}")


def virtual_mret(vctx: VirtContext) -> c.PrivilegeLevel:
    """Emulate ``mret`` on the shadow mstatus; returns the new virtual mode."""
    mstatus = vctx.mstatus
    previous = c.PrivilegeLevel((mstatus >> 11) & 0x3)
    mpie = (mstatus >> 7) & 1
    mstatus = (mstatus & ~c.MSTATUS_MIE) | (mpie << 3)
    mstatus |= c.MSTATUS_MPIE
    if "mret_mpp_not_cleared" not in bugs.active:
        mstatus &= ~c.MSTATUS_MPP  # MPP <- U
    if previous != c.M_MODE:
        mstatus &= ~c.MSTATUS_MPRV
    vctx.mstatus = mstatus & U64
    vctx.virtual_mode = previous
    return previous


def virtual_sret(vctx: VirtContext) -> c.PrivilegeLevel:
    """Emulate ``sret`` on the shadow sstatus fields."""
    mstatus = vctx.mstatus
    previous = c.PrivilegeLevel((mstatus >> 8) & 0x1)
    spie = (mstatus >> 5) & 1
    mstatus = (mstatus & ~c.MSTATUS_SIE) | (spie << 1)
    mstatus |= c.MSTATUS_SPIE
    mstatus &= ~c.MSTATUS_SPP
    if previous != c.M_MODE:
        mstatus &= ~c.MSTATUS_MPRV
    vctx.mstatus = mstatus & U64
    vctx.virtual_mode = previous
    return previous


def inject_virtual_trap(
    vctx: VirtContext, cause: int, is_interrupt: bool, tval: int, trapped_pc: int
) -> int:
    """Deliver a trap into vM-mode on the shadow state.

    Returns the physical pc at which the firmware's handler starts
    (the virtual mtvec, honouring vectored mode for interrupts).
    """
    vctx.mepc = trapped_pc & ~0x3 & U64
    vctx.mcause = ((c.INTERRUPT_BIT | cause) if is_interrupt else cause) & U64
    vctx.mtval = tval & U64
    mstatus = vctx.mstatus
    mstatus = (mstatus & ~c.MSTATUS_MPP) | (int(vctx.virtual_mode) << 11)
    mie = (mstatus >> 3) & 1
    mstatus = (mstatus & ~c.MSTATUS_MPIE) | (mie << 7)
    mstatus &= ~c.MSTATUS_MIE
    vctx.mstatus = mstatus & U64
    vctx.virtual_mode = c.M_MODE
    base = vctx.mtvec & ~0x3
    if is_interrupt and vctx.mtvec & 0x3 == 1:
        return (base + 4 * cause) & U64
    return base


def emulate_privileged(
    vctx: VirtContext,
    instr: Instruction,
    trapped_pc: int,
    gpr_read,
    gpr_write,
    mtime: Optional[int],
) -> EmulationResult:
    """Emulate one privileged instruction trapped from vM-mode.

    ``gpr_read``/``gpr_write`` access the firmware's live general-purpose
    registers (which stay in the physical register file, §4.1); ``mtime``
    is what a ``time`` read returns, and only such a read needs it.  Raises
    :class:`VirtualTrapError` when the instruction is illegal on the
    virtual platform and must be re-injected.
    """
    if "vpc_overflow" in bugs.active:
        next_pc = trapped_pc + 4  # the §6.5 vPC overflow: no truncation
    else:
        next_pc = (trapped_pc + 4) & U64

    mnemonic = instr.mnemonic

    if instr.is_csr_op:
        writes = not (
            mnemonic in ("csrrs", "csrrc", "csrrsi", "csrrci") and instr.rs1 == 0
        )
        try:
            old = read_csr(vctx, instr.csr, mtime=mtime)
            effects = CsrEffect.NONE
            if writes:
                operand = instr.rs1 if instr.csr_uses_immediate else gpr_read(instr.rs1)
                if mnemonic in ("csrrw", "csrrwi"):
                    new = operand
                elif mnemonic in ("csrrs", "csrrsi"):
                    new = old | operand
                else:
                    new = old & ~operand
                hook = vctx.csr_write_hook
                if hook is not None:
                    new = hook(instr.csr, new)
                effects = write_csr(vctx, instr.csr, new)
        except VirtCsrError:
            raise VirtualTrapError(
                c.TrapCause.ILLEGAL_INSTRUCTION, tval=instr.word
            ) from None
        gpr_write(instr.rd, old)
        return EmulationResult(next_pc=next_pc, effects=effects)

    if mnemonic == "mret":
        new_mode = virtual_mret(vctx)
        return EmulationResult(
            next_pc=vctx.mepc,
            new_virtual_mode=new_mode,
            effects=CsrEffect.INTERRUPTS,
        )

    if mnemonic == "sret":
        # Virtual M-mode may execute sret (e.g. firmware implementing
        # suspend paths); TSR does not apply at M level.
        new_mode = virtual_sret(vctx)
        return EmulationResult(
            next_pc=vctx.sepc,
            new_virtual_mode=new_mode,
            effects=CsrEffect.INTERRUPTS,
        )

    if mnemonic == "wfi":
        return EmulationResult(next_pc=next_pc, is_wfi=True)

    if mnemonic in ("sfence.vma", "fence.i"):
        return EmulationResult(next_pc=next_pc, is_fence=True)

    if mnemonic == "ecall":
        # An ecall from virtual M-mode traps to the virtual mtvec.
        raise VirtualTrapError(c.TrapCause.ECALL_FROM_M)

    raise VirtualTrapError(c.TrapCause.ILLEGAL_INSTRUCTION, tval=instr.word)
