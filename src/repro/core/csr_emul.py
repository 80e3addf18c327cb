"""Virtual CSR emulation: Miralis's own read/write semantics.

This is the emulator's per-CSR logic, the counterpart of the ~2.1k lines
§4.1 describes as Miralis's biggest subsystem.  It operates on the shadow
state (:class:`~repro.core.vcpu.VirtContext`) and implements its own WARL
legalization — deliberately *not* sharing code with the reference
specification, since checking the two against each other is the entire
point of §6's faithful-emulation criterion.

Writes return a :class:`CsrEffect` describing physical state the monitor
must re-synchronize (PMP reinstall, interrupt-enable updates, timer
reprogramming).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core import bugs
from repro.core.vcpu import VirtContext
from repro.isa import constants as c

U64 = (1 << 64) - 1


class VirtCsrError(Exception):
    """The access is illegal on the virtual platform (re-inject into vM)."""


class CsrEffect(enum.Flag):
    """Physical side effects a virtual CSR write requires."""

    NONE = 0
    PMP = enum.auto()  # physical PMP must be recomputed and reinstalled
    INTERRUPTS = enum.auto()  # virtual interrupt state may have changed
    TIMER = enum.auto()  # virtual timer configuration changed


# Interrupt bits writable by M-mode software in the virtual mip.
_VMIP_WRITABLE = c.MIP_SSIP | c.MIP_STIP | c.MIP_SEIP

_H_CSR_ADDRESSES = frozenset(
    {
        c.CSR_HSTATUS, c.CSR_HEDELEG, c.CSR_HIDELEG, c.CSR_HIE, c.CSR_HIP,
        c.CSR_HVIP, c.CSR_HCOUNTEREN, c.CSR_HGEIE, c.CSR_HTVAL, c.CSR_HTINST,
        c.CSR_HGATP, c.CSR_VSSTATUS, c.CSR_VSIE, c.CSR_VSTVEC,
        c.CSR_VSSCRATCH, c.CSR_VSEPC, c.CSR_VSCAUSE, c.CSR_VSTVAL,
        c.CSR_VSIP, c.CSR_VSATP, c.CSR_MTINST, c.CSR_MTVAL2, c.CSR_HGEIP,
    }
)


def _legalize_mstatus(ctx: VirtContext, value: int) -> int:
    """Miralis's mstatus legalization (independent of the spec's)."""
    writable = (
        c.MSTATUS_SIE | c.MSTATUS_MIE | c.MSTATUS_SPIE | c.MSTATUS_MPIE
        | c.MSTATUS_SPP | c.MSTATUS_VS | c.MSTATUS_MPP | c.MSTATUS_FS
        | c.MSTATUS_MPRV | c.MSTATUS_SUM | c.MSTATUS_MXR | c.MSTATUS_TVM
        | c.MSTATUS_TW | c.MSTATUS_TSR
    )
    if "legalization_parenthesis" in bugs.active:
        # The §6.5 bug: a misplaced parenthesis corrupts the write mask so
        # reserved bits leak into the shadow mstatus.
        new = ctx.mstatus & ~writable | value
    else:
        new = (ctx.mstatus & ~writable) | (value & writable)
    mpp = (new >> 11) & 0x3
    if mpp == 2 and "mpp_invalid_accepted" not in bugs.active:
        new = (new & ~c.MSTATUS_MPP) | (ctx.mstatus & c.MSTATUS_MPP)
    # UXL and SXL are hard-wired to 64-bit.
    new = (new & ~(c.MSTATUS_UXL | c.MSTATUS_SXL)) | (2 << 32) | (2 << 34)
    fs = (new >> 13) & 0x3
    vs = (new >> 9) & 0x3
    if fs == 3 or vs == 3:
        new |= c.MSTATUS_SD
    else:
        new &= ~c.MSTATUS_SD
    return new & U64


def _legalize_tvec(old: int, value: int) -> int:
    mode = value & 0x3
    if mode >= 2:
        mode = old & 0x3
    return (value & ~0x3) | mode


def _exists(ctx: VirtContext, csr: int) -> bool:
    platform = ctx.platform
    if c.CSR_PMPCFG0 <= csr <= c.CSR_PMPCFG15:
        # Beyond-count registers are read-zero/ignore-write (probing).
        return csr % 2 == 0
    if c.CSR_PMPADDR0 <= csr <= c.CSR_PMPADDR63:
        return True
    if csr == c.CSR_TIME:
        return platform.has_hw_time_csr
    if csr == c.CSR_STIMECMP:
        return platform.has_sstc
    if csr in ctx.vendor:
        return True
    if csr in _H_CSR_ADDRESSES:
        return platform.has_h_extension
    if c.CSR_MHPMCOUNTER3 <= csr < c.CSR_MHPMCOUNTER3 + 29:
        return True
    if c.CSR_MHPMEVENT3 <= csr < c.CSR_MHPMEVENT3 + 29:
        return True
    if c.CSR_HPMCOUNTER3 <= csr < c.CSR_HPMCOUNTER3 + 29:
        return True
    return csr in _DIRECT_READS or csr in _DIRECT_WRITES or csr in (
        c.CSR_CYCLE, c.CSR_INSTRET, c.CSR_MVENDORID, c.CSR_MARCHID,
        c.CSR_MIMPID, c.CSR_MHARTID, c.CSR_MCONFIGPTR, c.CSR_SSTATUS,
        c.CSR_SIE, c.CSR_SIP, c.CSR_MISA, c.CSR_MIP,
    )


_DIRECT_READS = {
    c.CSR_MSTATUS: lambda ctx: ctx.mstatus,
    c.CSR_MEDELEG: lambda ctx: ctx.medeleg,
    c.CSR_MIDELEG: lambda ctx: ctx.mideleg,
    c.CSR_MIE: lambda ctx: ctx.mie,
    c.CSR_MTVEC: lambda ctx: ctx.mtvec,
    c.CSR_MCOUNTEREN: lambda ctx: ctx.mcounteren,
    c.CSR_MCOUNTINHIBIT: lambda ctx: ctx.mcountinhibit,
    c.CSR_MENVCFG: lambda ctx: ctx.menvcfg,
    c.CSR_MSCRATCH: lambda ctx: ctx.mscratch,
    c.CSR_MEPC: lambda ctx: ctx.mepc,
    c.CSR_MCAUSE: lambda ctx: ctx.mcause,
    c.CSR_MTVAL: lambda ctx: ctx.mtval,
    c.CSR_MCYCLE: lambda ctx: ctx.mcycle,
    c.CSR_MINSTRET: lambda ctx: ctx.minstret,
    c.CSR_STVEC: lambda ctx: ctx.stvec,
    c.CSR_SCOUNTEREN: lambda ctx: ctx.scounteren,
    c.CSR_SENVCFG: lambda ctx: ctx.senvcfg,
    c.CSR_SSCRATCH: lambda ctx: ctx.sscratch,
    c.CSR_SEPC: lambda ctx: ctx.sepc,
    c.CSR_SCAUSE: lambda ctx: ctx.scause,
    c.CSR_STVAL: lambda ctx: ctx.stval,
    c.CSR_SATP: lambda ctx: ctx.satp,
    c.CSR_STIMECMP: lambda ctx: ctx.stimecmp,
}

_DIRECT_WRITES = frozenset(_DIRECT_READS) - {c.CSR_MCYCLE, c.CSR_MINSTRET}


def read_csr(ctx: VirtContext, csr: int, mtime: Optional[int] = None) -> int:
    """Emulate a CSR read from vM-mode."""
    if not _exists(ctx, csr):
        raise VirtCsrError(f"virtual CSR {csr:#x} does not exist")
    if csr in _DIRECT_READS:
        return _DIRECT_READS[csr](ctx)
    if csr == c.CSR_MISA:
        return ctx.misa
    if csr == c.CSR_MIP:
        return ctx.mip
    if csr == c.CSR_SSTATUS:
        return ctx.sstatus
    if csr == c.CSR_SIE:
        return ctx.sie
    if csr == c.CSR_SIP:
        return ctx.sip
    if csr == c.CSR_MVENDORID:
        return ctx.platform.mvendorid
    if csr == c.CSR_MARCHID:
        return ctx.platform.marchid
    if csr == c.CSR_MIMPID:
        return ctx.platform.mimpid
    if csr == c.CSR_MHARTID:
        return ctx.hartid
    if csr == c.CSR_MCONFIGPTR:
        return 0
    if csr == c.CSR_CYCLE:
        return ctx.mcycle
    if csr == c.CSR_INSTRET:
        return ctx.minstret
    if csr == c.CSR_TIME:
        return (mtime or 0) & U64
    if c.CSR_PMPCFG0 <= csr <= c.CSR_PMPCFG15:
        base = (csr - c.CSR_PMPCFG0) * 4
        value = 0
        for i in range(8):
            value |= ctx.pmpcfg[base + i] << (8 * i)
        return value
    if c.CSR_PMPADDR0 <= csr <= c.CSR_PMPADDR63:
        return ctx.pmpaddr[csr - c.CSR_PMPADDR0]
    if csr in ctx.vendor:
        return ctx.vendor[csr]
    if csr in ctx.h_csrs:
        return ctx.h_csrs[csr]
    if csr == c.CSR_HGEIP:
        return 0
    # Remaining performance counters read as zero.
    return 0


def write_csr(ctx: VirtContext, csr: int, value: int) -> CsrEffect:
    """Emulate a CSR write from vM-mode; returns required physical effects."""
    if not _exists(ctx, csr):
        raise VirtCsrError(f"virtual CSR {csr:#x} does not exist")
    if (csr >> 10) & 0x3 == 0x3:
        raise VirtCsrError(f"virtual CSR {csr:#x} is read-only")
    value &= U64

    if csr == c.CSR_MSTATUS:
        ctx.mstatus = _legalize_mstatus(ctx, value)
        return CsrEffect.INTERRUPTS
    if csr == c.CSR_SSTATUS:
        merged = (ctx.mstatus & ~c.SSTATUS_MASK) | (value & c.SSTATUS_MASK)
        ctx.mstatus = _legalize_mstatus(ctx, merged)
        return CsrEffect.INTERRUPTS
    if csr == c.CSR_MISA:
        return CsrEffect.NONE  # fixed on the virtual platform too
    if csr == c.CSR_MEDELEG:
        ctx.medeleg = value & c.MEDELEG_MASK
        return CsrEffect.NONE
    if csr == c.CSR_MIDELEG:
        # §4.3: Miralis hard-wires delegation of all non-M interrupts.
        ctx.mideleg = c.MIDELEG_MASK
        return CsrEffect.NONE
    if csr == c.CSR_MIE:
        ctx.mie = value & c.MIP_MASK
        return CsrEffect.INTERRUPTS
    if csr == c.CSR_SIE:
        writable = ctx.mideleg & c.SIP_MASK
        ctx.mie = (ctx.mie & ~writable) | (value & writable)
        return CsrEffect.INTERRUPTS
    if csr == c.CSR_MIP:
        ctx.mip = (ctx.mip & ~_VMIP_WRITABLE) | (value & _VMIP_WRITABLE)
        return CsrEffect.INTERRUPTS
    if csr == c.CSR_SIP:
        writable = ctx.mideleg & c.MIP_SSIP
        ctx.mip = (ctx.mip & ~writable) | (value & writable)
        return CsrEffect.INTERRUPTS
    if csr == c.CSR_MTVEC:
        ctx.mtvec = _legalize_tvec(ctx.mtvec, value)
        return CsrEffect.NONE
    if csr == c.CSR_STVEC:
        ctx.stvec = _legalize_tvec(ctx.stvec, value)
        return CsrEffect.NONE
    if csr == c.CSR_MEPC:
        ctx.mepc = value & ~0x3
        return CsrEffect.NONE
    if csr == c.CSR_SEPC:
        ctx.sepc = value & ~0x3
        return CsrEffect.NONE
    if csr == c.CSR_MCAUSE:
        ctx.mcause = value & (c.INTERRUPT_BIT | 0x3F)
        return CsrEffect.NONE
    if csr == c.CSR_SCAUSE:
        ctx.scause = value & (c.INTERRUPT_BIT | 0x3F)
        return CsrEffect.NONE
    if csr == c.CSR_MTVAL:
        ctx.mtval = value
        return CsrEffect.NONE
    if csr == c.CSR_STVAL:
        ctx.stval = value
        return CsrEffect.NONE
    if csr == c.CSR_MSCRATCH:
        ctx.mscratch = value
        return CsrEffect.NONE
    if csr == c.CSR_SSCRATCH:
        ctx.sscratch = value
        return CsrEffect.NONE
    if csr == c.CSR_SATP:
        mode = value >> 60
        if mode in (0, 8, 9):
            ctx.satp = value
        return CsrEffect.NONE
    if csr == c.CSR_MENVCFG:
        mask = c.MENVCFG_FIOM
        if ctx.platform.has_sstc:
            mask |= c.MENVCFG_STCE
        ctx.menvcfg = value & mask
        return CsrEffect.TIMER
    if csr == c.CSR_SENVCFG:
        ctx.senvcfg = value & c.MENVCFG_FIOM
        return CsrEffect.NONE
    if csr == c.CSR_MCOUNTEREN:
        ctx.mcounteren = value & 0xFFFFFFFF
        return CsrEffect.NONE
    if csr == c.CSR_SCOUNTEREN:
        ctx.scounteren = value & 0xFFFFFFFF
        return CsrEffect.NONE
    if csr == c.CSR_MCOUNTINHIBIT:
        ctx.mcountinhibit = value & 0xFFFFFFFD
        return CsrEffect.NONE
    if csr == c.CSR_MCYCLE:
        ctx.mcycle = value
        return CsrEffect.NONE
    if csr == c.CSR_MINSTRET:
        ctx.minstret = value
        return CsrEffect.NONE
    if csr == c.CSR_STIMECMP:
        ctx.stimecmp = value
        return CsrEffect.TIMER | CsrEffect.INTERRUPTS
    if c.CSR_PMPCFG0 <= csr <= c.CSR_PMPCFG15:
        _write_virtual_pmpcfg(ctx, (csr - c.CSR_PMPCFG0) * 4, value)
        return CsrEffect.PMP
    if c.CSR_PMPADDR0 <= csr <= c.CSR_PMPADDR63:
        _write_virtual_pmpaddr(ctx, csr - c.CSR_PMPADDR0, value)
        return CsrEffect.PMP
    if csr in ctx.vendor:
        ctx.vendor[csr] = value
        return CsrEffect.NONE
    if csr in ctx.h_csrs:
        ctx.h_csrs[csr] = _legalize_h_csr(csr, ctx.h_csrs[csr], value)
        return CsrEffect.NONE
    if c.CSR_MHPMCOUNTER3 <= csr < c.CSR_MHPMCOUNTER3 + 29:
        return CsrEffect.NONE
    if c.CSR_MHPMEVENT3 <= csr < c.CSR_MHPMEVENT3 + 29:
        return CsrEffect.NONE
    raise VirtCsrError(f"virtual CSR {csr:#x} is not writable")


def _write_virtual_pmpcfg(ctx: VirtContext, first_entry: int, value: int) -> None:
    limit = ctx.virtual_pmp_count
    if "vpmp_out_of_range" in bugs.active:
        limit = 64  # the §6.5 bug: missing bound check on virtual entries
    for i in range(8):
        index = first_entry + i
        if index >= limit:
            break
        byte = (value >> (8 * i)) & 0xFF
        old = ctx.pmpcfg[index] if index < 64 else 0
        if old & c.PMP_L:
            continue
        byte &= c.PMP_CFG_VALID_MASK
        writes_w_without_r = bool(byte & c.PMP_W) and not byte & c.PMP_R
        if writes_w_without_r and "pmp_w_without_r" not in bugs.active:
            continue
        ctx.pmpcfg[index] = byte


def _write_virtual_pmpaddr(ctx: VirtContext, index: int, value: int) -> None:
    if index >= ctx.virtual_pmp_count:
        return
    if ctx.pmpcfg[index] & c.PMP_L:
        return
    if index + 1 < ctx.virtual_pmp_count:
        next_cfg = ctx.pmpcfg[index + 1]
        if next_cfg & c.PMP_L and (next_cfg >> 3) & 0x3 == 1:  # locked TOR
            return
    ctx.pmpaddr[index] = value & ((1 << 54) - 1)


_H_WRITE_MASKS = {
    c.CSR_HSTATUS: 0x30_01FF_E7C0,
    c.CSR_HEDELEG: c.MEDELEG_MASK,
    c.CSR_HIDELEG: (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI),
    c.CSR_HIE: (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI) | (1 << c.IRQ_SGEI),
    c.CSR_HIP: 1 << c.IRQ_VSSI,
    c.CSR_HVIP: (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI),
    c.CSR_HCOUNTEREN: 0xFFFFFFFF,
    c.CSR_HGEIE: U64 & ~1,
    c.CSR_HTVAL: U64,
    c.CSR_HTINST: U64,
    c.CSR_HGATP: 0,
    c.CSR_VSSTATUS: c.SSTATUS_MASK & ~(c.MSTATUS_UXL | c.MSTATUS_SD),
    c.CSR_VSIE: c.SIP_MASK,
    c.CSR_VSTVEC: U64,
    c.CSR_VSSCRATCH: U64,
    c.CSR_VSEPC: U64 & ~0x3,
    c.CSR_VSCAUSE: U64,
    c.CSR_VSTVAL: U64,
    c.CSR_VSIP: 1 << c.IRQ_SSI,
    c.CSR_VSATP: 0,
    c.CSR_MTINST: U64,
    c.CSR_MTVAL2: U64,
}


def _legalize_h_csr(csr: int, old: int, value: int) -> int:
    mask = _H_WRITE_MASKS.get(csr, 0)
    if csr in (c.CSR_HIP, c.CSR_VSIP, c.CSR_HVIP):
        return (old & ~mask) | (value & mask)
    if mask == 0:
        return old
    return value & mask
