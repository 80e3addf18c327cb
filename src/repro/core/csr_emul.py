"""Virtual CSR emulation: Miralis's own read/write semantics.

This is the emulator's per-CSR logic, the counterpart of the ~2.1k lines
§4.1 describes as Miralis's biggest subsystem.  It operates on the shadow
state (:class:`~repro.core.vcpu.VirtContext`) and implements its own WARL
legalization — deliberately *not* sharing code with the reference
specification, since checking the two against each other is the entire
point of §6's faithful-emulation criterion.

Each platform config has one table (:func:`virtual_csr_table`) mapping
every virtual CSR address to its reader and writer, so an access is one
lookup rather than a walk down per-CSR tests.  Writes return a
:class:`CsrEffect` describing physical state the monitor must
re-synchronize (PMP reinstall, interrupt-enable updates, timer
reprogramming).
"""

from __future__ import annotations

import enum
import functools
from functools import partial
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional

from repro.core import bugs
from repro.isa import constants as c

if TYPE_CHECKING:
    from repro.core.vcpu import VirtContext

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


def _store(field: str, mask: int = U64, effect: CsrEffect = CsrEffect.NONE):
    """A writer keeping ``value & mask`` in the shadow ``field``."""
    def write(ctx: VirtContext, value: int) -> CsrEffect:
        setattr(ctx, field, value & mask)
        return effect
    return write


def _ignore(ctx: VirtContext, value: int) -> CsrEffect:
    """WARL: the CSR keeps its value."""
    return CsrEffect.NONE


def _zero(ctx: VirtContext) -> int:
    return 0


def _write_mstatus(ctx: VirtContext, value: int) -> CsrEffect:
    ctx.mstatus = _legalize_mstatus(ctx, value)
    return CsrEffect.INTERRUPTS


def _write_sstatus(ctx: VirtContext, value: int) -> CsrEffect:
    merged = (ctx.mstatus & ~c.SSTATUS_MASK) | (value & c.SSTATUS_MASK)
    ctx.mstatus = _legalize_mstatus(ctx, merged)
    return CsrEffect.INTERRUPTS


def _write_mideleg(ctx: VirtContext, value: int) -> CsrEffect:
    # §4.3: Miralis hard-wires delegation of all non-M interrupts.
    ctx.mideleg = c.MIDELEG_MASK
    return CsrEffect.NONE


def _write_sie(ctx: VirtContext, value: int) -> CsrEffect:
    writable = ctx.mideleg & c.SIP_MASK
    ctx.mie = (ctx.mie & ~writable) | (value & writable)
    return CsrEffect.INTERRUPTS


def _write_mip(ctx: VirtContext, value: int) -> CsrEffect:
    ctx.mip = (ctx.mip & ~_VMIP_WRITABLE) | (value & _VMIP_WRITABLE)
    return CsrEffect.INTERRUPTS


def _write_sip(ctx: VirtContext, value: int) -> CsrEffect:
    writable = ctx.mideleg & c.MIP_SSIP
    ctx.mip = (ctx.mip & ~writable) | (value & writable)
    return CsrEffect.INTERRUPTS


def _write_mtvec(ctx: VirtContext, value: int) -> CsrEffect:
    ctx.mtvec = _legalize_tvec(ctx.mtvec, value)
    return CsrEffect.NONE


def _write_stvec(ctx: VirtContext, value: int) -> CsrEffect:
    ctx.stvec = _legalize_tvec(ctx.stvec, value)
    return CsrEffect.NONE


def _write_satp(ctx: VirtContext, value: int) -> CsrEffect:
    if value >> 60 in (0, 8, 9):
        ctx.satp = value
    return CsrEffect.NONE


def _read_pmpcfg(ctx: VirtContext, base: int) -> int:
    value = 0
    for i in range(8):
        value |= ctx.pmpcfg[base + i] << (8 * i)
    return value


def _read_pmpaddr(ctx: VirtContext, index: int) -> int:
    return ctx.pmpaddr[index]


def _read_vendor(ctx: VirtContext, csr: int) -> int:
    return ctx.vendor[csr]


def _write_vendor(ctx: VirtContext, value: int, csr: int) -> CsrEffect:
    ctx.vendor[csr] = value
    return CsrEffect.NONE


def _read_h(ctx: VirtContext, csr: int) -> int:
    return ctx.h_csrs[csr]


def _write_h(ctx: VirtContext, value: int, csr: int) -> CsrEffect:
    ctx.h_csrs[csr] = _legalize_h_csr(csr, ctx.h_csrs[csr], value)
    return CsrEffect.NONE


#: The ``read`` of the ``time`` CSR: the caller's mtime, not a field.
_TIME_READ = None


@functools.cache
def virtual_csr_table(config) -> Mapping[int, tuple]:
    """Every virtual CSR of ``config`` by address: ``(read, write)``.

    ``read(ctx)`` returns the value (``_TIME_READ`` for ``time``: the
    caller's mtime), ``write(ctx, value)`` applies the WARL rule to a
    64-bit value and returns the :class:`CsrEffect`; ``write`` is None
    for a read-only CSR.  An address absent from the table does not
    exist on the virtual platform.  Built once per (frozen) platform
    config and shared by its contexts; seeded bugs are read by the
    writers on each call.
    """
    table: dict[int, tuple] = {}

    def csr(addr: int, read, write=None) -> None:
        # Address bits 11:10 = 3 mark a read-only CSR.
        table[addr] = (read, None if (addr >> 10) & 0x3 == 0x3 else write)

    def field(addr: int, name: str, write) -> None:
        csr(addr, attrgetter(name), write)

    field(c.CSR_MSTATUS, "mstatus", _write_mstatus)
    field(c.CSR_SSTATUS, "sstatus", _write_sstatus)
    field(c.CSR_MISA, "misa", _ignore)  # fixed on the virtual platform too
    field(c.CSR_MEDELEG, "medeleg", _store("medeleg", c.MEDELEG_MASK))
    field(c.CSR_MIDELEG, "mideleg", _write_mideleg)
    field(c.CSR_MIE, "mie",
          _store("mie", c.MIP_MASK, CsrEffect.INTERRUPTS))
    field(c.CSR_SIE, "sie", _write_sie)
    field(c.CSR_MIP, "mip", _write_mip)
    field(c.CSR_SIP, "sip", _write_sip)
    field(c.CSR_MTVEC, "mtvec", _write_mtvec)
    field(c.CSR_STVEC, "stvec", _write_stvec)
    field(c.CSR_MEPC, "mepc", _store("mepc", ~0x3 & U64))
    field(c.CSR_SEPC, "sepc", _store("sepc", ~0x3 & U64))
    field(c.CSR_MCAUSE, "mcause", _store("mcause", c.INTERRUPT_BIT | 0x3F))
    field(c.CSR_SCAUSE, "scause", _store("scause", c.INTERRUPT_BIT | 0x3F))
    for addr, name in ((c.CSR_MTVAL, "mtval"), (c.CSR_STVAL, "stval"),
                       (c.CSR_MSCRATCH, "mscratch"),
                       (c.CSR_SSCRATCH, "sscratch"),
                       (c.CSR_MCYCLE, "mcycle"),
                       (c.CSR_MINSTRET, "minstret")):
        field(addr, name, _store(name))
    field(c.CSR_SATP, "satp", _write_satp)
    stce = c.MENVCFG_STCE if config.has_sstc else 0
    field(c.CSR_MENVCFG, "menvcfg",
          _store("menvcfg", c.MENVCFG_FIOM | stce, CsrEffect.TIMER))
    field(c.CSR_SENVCFG, "senvcfg", _store("senvcfg", c.MENVCFG_FIOM))
    field(c.CSR_MCOUNTEREN, "mcounteren", _store("mcounteren", 0xFFFFFFFF))
    field(c.CSR_SCOUNTEREN, "scounteren", _store("scounteren", 0xFFFFFFFF))
    field(c.CSR_MCOUNTINHIBIT, "mcountinhibit",
          _store("mcountinhibit", 0xFFFFFFFD))
    field(c.CSR_CYCLE, "mcycle", None)
    field(c.CSR_INSTRET, "minstret", None)
    field(c.CSR_MVENDORID, "platform.mvendorid", None)
    field(c.CSR_MARCHID, "platform.marchid", None)
    field(c.CSR_MIMPID, "platform.mimpid", None)
    field(c.CSR_MHARTID, "hartid", None)
    csr(c.CSR_MCONFIGPTR, _zero)
    if config.has_hw_time_csr:
        csr(c.CSR_TIME, _TIME_READ)
    if config.has_sstc:
        field(c.CSR_STIMECMP, "stimecmp",
              _store("stimecmp", effect=CsrEffect.TIMER | CsrEffect.INTERRUPTS))
    for addr in config.vendor_csrs:
        csr(addr, partial(_read_vendor, csr=addr),
            partial(_write_vendor, csr=addr))
    if config.has_h_extension:
        for addr in _H_WRITE_MASKS:
            csr(addr, partial(_read_h, csr=addr), partial(_write_h, csr=addr))
        csr(c.CSR_HGEIP, _zero)
    # Every even pmpcfg and every pmpaddr exists: beyond the virtual
    # count they are read-zero/ignore-write, so firmware can probe.
    for index in range(0, 64, 8):
        csr(c.CSR_PMPCFG0 + index // 4, partial(_read_pmpcfg, base=index),
            partial(_write_virtual_pmpcfg, first_entry=index))
    for index in range(64):
        csr(c.CSR_PMPADDR0 + index, partial(_read_pmpaddr, index=index),
            partial(_write_virtual_pmpaddr, index=index))
    # Remaining performance counters read as zero.
    for offset in range(29):
        csr(c.CSR_MHPMCOUNTER3 + offset, _zero, _ignore)
        csr(c.CSR_MHPMEVENT3 + offset, _zero, _ignore)
        csr(c.CSR_HPMCOUNTER3 + offset, _zero)
    return MappingProxyType(table)


def read_csr(ctx: VirtContext, csr: int, mtime: Optional[int] = None) -> int:
    """Emulate a CSR read from vM-mode (``mtime``: for the ``time`` CSR)."""
    entry = ctx.csr_table.get(csr)
    if entry is None:
        raise VirtCsrError(f"virtual CSR {csr:#x} does not exist")
    read = entry[0]
    if read is _TIME_READ:
        return (mtime or 0) & U64
    return read(ctx)


def write_csr(ctx: VirtContext, csr: int, value: int) -> CsrEffect:
    """Emulate a CSR write from vM-mode; returns required physical effects."""
    entry = ctx.csr_table.get(csr)
    if entry is None:
        raise VirtCsrError(f"virtual CSR {csr:#x} does not exist")
    write = entry[1]
    if write is None:
        raise VirtCsrError(f"virtual CSR {csr:#x} is read-only")
    return write(ctx, value & U64)


def _write_virtual_pmpcfg(ctx: VirtContext, value: int,
                          first_entry: int) -> CsrEffect:
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
    return CsrEffect.PMP


def _write_virtual_pmpaddr(ctx: VirtContext, value: int,
                           index: int) -> CsrEffect:
    if index >= ctx.virtual_pmp_count or ctx.pmpcfg[index] & c.PMP_L:
        return CsrEffect.PMP
    if index + 1 < ctx.virtual_pmp_count:
        next_cfg = ctx.pmpcfg[index + 1]
        if next_cfg & c.PMP_L and (next_cfg >> 3) & 0x3 == 1:  # locked TOR
            return CsrEffect.PMP
    ctx.pmpaddr[index] = value & ((1 << 54) - 1)
    return CsrEffect.PMP


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
