"""Reference CSR semantics: storage, views, and WARL legalization.

This module is part of the executable specification (the paper's ``hw``
function, played by the RISC-V Sail model).  Every architectural CSR the
simulated platforms implement is defined here with its reset value, its
writable-bit mask, and its WARL legalization rules.

The Miralis emulator in :mod:`repro.core.csr_emul` deliberately does NOT
reuse this code: it is an independent implementation (as the Rust emulator
is independent from Sail), and :mod:`repro.verif` checks the two against
each other (faithful emulation, Definition 1 of the paper).
"""

from __future__ import annotations

import dataclasses
import functools
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from repro.isa import constants as c
from repro.isa.bits import get_field, set_field, to_u64

# Machine and supervisor CSRs held as plain storage in ``CsrFile._simple``.
_SIMPLE_CSRS: dict[int, tuple[int, int]] = {
    # addr: (reset value, write mask)
    c.CSR_MSCRATCH: (0, c.XMASK),
    c.CSR_MTVAL: (0, c.XMASK),
    c.CSR_MCYCLE: (0, c.XMASK),
    c.CSR_MINSTRET: (0, c.XMASK),
    c.CSR_MCOUNTEREN: (0, 0xFFFFFFFF),
    c.CSR_SCOUNTEREN: (0, 0xFFFFFFFF),
    c.CSR_MCOUNTINHIBIT: (0, 0xFFFFFFFD),
    c.CSR_SSCRATCH: (0, c.XMASK),
    c.CSR_STVAL: (0, c.XMASK),
    c.CSR_SENVCFG: (0, c.MENVCFG_FIOM),
}

# Hypervisor-extension CSRs (simple storage; full mask noted per register).
_H_CSRS: dict[int, tuple[int, int]] = {
    c.CSR_HSTATUS: (0x2 << 32, 0x30_01FF_E7C0),  # VSXL fixed, common fields
    c.CSR_HEDELEG: (0, c.MEDELEG_MASK),
    c.CSR_HIDELEG: (0, (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI)),
    c.CSR_HIE: (0, (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI) | (1 << c.IRQ_SGEI)),
    c.CSR_HIP: (0, 1 << c.IRQ_VSSI),
    c.CSR_HVIP: (0, (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI)),
    c.CSR_HCOUNTEREN: (0, 0xFFFFFFFF),
    c.CSR_HGEIE: (0, c.XMASK & ~1),
    c.CSR_HTVAL: (0, c.XMASK),
    c.CSR_HTINST: (0, c.XMASK),
    c.CSR_HGATP: (0, 0),  # bare-only in this model: writes ignored
    c.CSR_VSSTATUS: (c.XL_64 << 32, c.SSTATUS_MASK & ~(c.MSTATUS_UXL | c.MSTATUS_SD)),
    c.CSR_VSIE: (0, c.SIP_MASK),
    c.CSR_VSTVEC: (0, c.XMASK),
    c.CSR_VSSCRATCH: (0, c.XMASK),
    c.CSR_VSEPC: (0, c.XMASK & ~0x3),
    c.CSR_VSCAUSE: (0, c.XMASK),
    c.CSR_VSTVAL: (0, c.XMASK),
    c.CSR_VSIP: (0, 1 << c.IRQ_SSI),
    c.CSR_VSATP: (0, 0),
}

#: H-extension pending bits: a write changes only the masked bits.
_H_PENDING = (c.CSR_HIP, c.CSR_VSIP, c.CSR_HVIP)

#: CsrFile fields that are not state: wiring, and the CSR table (a pure
#: function of the frozen platform config).
_NOT_STATE = ("config", "hartid", "time_source", "table")

_MSTATUS_RESET = (c.XL_64 << 32) | (c.XL_64 << 34) | (3 << c.MSTATUS_MPP_SHIFT)


def legalize_mstatus(old: int, value: int) -> int:
    """WARL legalization for ``mstatus`` on an RV64 S+U machine.

    * Only writable fields change.
    * MPP may only hold U/S/M; an illegal write keeps the previous value.
    * UXL/SXL are read-only 64-bit.
    * SD is a read-only function of FS/VS/XS.
    """
    new = (old & ~c.MSTATUS_WRITABLE_MASK) | (value & c.MSTATUS_WRITABLE_MASK)
    mpp = get_field(new, c.MSTATUS_MPP)
    if mpp not in (0, 1, 3):
        new = set_field(new, c.MSTATUS_MPP, get_field(old, c.MSTATUS_MPP))
    new = set_field(new, c.MSTATUS_UXL, c.XL_64)
    new = set_field(new, c.MSTATUS_SXL, c.XL_64)
    dirty = get_field(new, c.MSTATUS_FS) == 3 or get_field(new, c.MSTATUS_VS) == 3
    new = (new | c.MSTATUS_SD) if dirty else (new & ~c.MSTATUS_SD)
    return to_u64(new)


def legalize_tvec(old: int, value: int) -> int:
    """WARL legalization for ``mtvec``/``stvec``: reserved modes keep old mode."""
    mode = value & c.TVEC_MODE_MASK
    if mode > c.TvecMode.VECTORED:
        mode = old & c.TVEC_MODE_MASK
    return (value & c.TVEC_BASE_MASK) | mode


def legalize_satp(old: int, value: int) -> int:
    """WARL legalization for ``satp``: unsupported modes leave satp unchanged.

    This model supports Bare (0), Sv39 (8), and Sv48 (9) encodings for the
    mode field; address translation itself is not modelled (bare behaviour),
    see DESIGN.md.
    """
    mode = value >> 60
    if mode not in (0, 8, 9):
        return old
    return to_u64(value)


def legalize_pmpcfg_byte(old: int, value: int) -> int:
    """WARL legalization of one pmpcfg byte.

    * Locked entries are not writable.
    * The reserved R=0/W=1 combination is ignored (keeps the old byte) —
      this is precisely the bug class §6.5 reports Miralis once got wrong.
    * Reserved bits 5 and 6 read as zero.
    """
    if old & c.PMP_L:
        return old
    value &= c.PMP_CFG_VALID_MASK
    if value & c.PMP_W and not value & c.PMP_R:
        return old
    return value


# -- CSR semantics beyond plain storage ----------------------------------
# Writers receive the value already truncated to XLEN.


def _legalized(field: str, legalize: Callable[[int, int], int]):
    """A writer storing ``legalize(old, value)`` into ``field``."""
    return lambda f, value: setattr(f, field, legalize(getattr(f, field), value))


def _write_sstatus(f: CsrFile, value: int) -> None:
    merged = (f.mstatus & ~c.SSTATUS_MASK) | (value & c.SSTATUS_MASK)
    f.mstatus = legalize_mstatus(f.mstatus, merged)


def _write_sie(f: CsrFile, value: int) -> None:
    writable = f.mideleg & c.SIP_MASK
    f.mie = (f.mie & ~writable) | (value & writable)


def _write_sip(f: CsrFile, value: int) -> None:
    writable = f.mideleg & c.MIP_SSIP
    f.mip_sw = (f.mip_sw & ~writable) | (value & writable)


def _write_mideleg_hardwired(f: CsrFile, value: int) -> None:
    f.mideleg = c.MIDELEG_MASK


def _ignore(f: CsrFile, value: int) -> None:
    """WARL: the CSR keeps its value."""


def _zero(f: CsrFile) -> int:
    return 0


def _read_pmpcfg(f: CsrFile, first: int) -> int:
    value = 0
    for i in range(8):
        value |= f.pmpcfg[first + i] << (8 * i)
    return value


def _write_pmpcfg(f: CsrFile, value: int, first: int) -> None:
    for i in range(8):
        index = first + i
        if index >= f.config.pmp_count:
            break
        byte = (value >> (8 * i)) & 0xFF
        f.pmpcfg[index] = legalize_pmpcfg_byte(f.pmpcfg[index], byte)


def _read_pmpaddr(f: CsrFile, index: int) -> int:
    return f.pmpaddr[index]


def _write_pmpaddr(f: CsrFile, value: int, index: int) -> None:
    if f.pmpcfg[index] & c.PMP_L:
        return
    # A locked TOR entry also locks the preceding address register.
    if index + 1 < f.config.pmp_count:
        next_cfg = f.pmpcfg[index + 1]
        next_mode = get_field(next_cfg, c.PMP_A_MASK)
        if next_cfg & c.PMP_L and next_mode == c.PmpAddressMode.TOR:
            return
    f.pmpaddr[index] = value & c.PMP_ADDR_MASK


def _set_bits(addr: int, mask: int) -> Callable[[CsrFile, int], None]:
    def write(f: CsrFile, value: int) -> None:
        f._simple[addr] = (f._simple[addr] & ~mask) | (value & mask)
    return write


@dataclasses.dataclass(frozen=True, slots=True)
class Csr:
    """One implemented CSR: its static access rule and its semantics.

    Without ``reader``/``writer`` the CSR is storage: the CsrFile attribute
    ``field``, or ``_simple[addr]`` when ``field`` is None, and a write
    stores ``value & mask``.  A ``reader`` is a view over the file; a
    ``writer`` applies the CSR's WARL rule itself.  (Slotted, because
    every raw access and access check loads these fields.)
    """

    min_privilege: c.PrivilegeLevel
    read_only: bool
    field: Optional[str]
    mask: int
    reader: Optional[Callable[[CsrFile], int]]
    writer: Optional[Callable[[CsrFile, int], None]]


class CsrFile:
    """The reference machine's CSR state.

    Raw ``read``/``write`` implement architectural semantics without
    privilege checks — those are applied by the instruction semantics in
    :mod:`repro.spec.step` — and raise ``KeyError`` for a CSR the platform
    does not implement (``write`` also for a read-only one).
    """

    def __init__(self, config, hartid: int = 0,
                 time_source: Optional[Callable[[], int]] = None):
        self.config = config
        #: Every implemented CSR by address, shared by all files of ``config``.
        self.table = csr_table(config)
        self.hartid = hartid
        self.time_source = time_source or (lambda: 0)
        self.mstatus = _MSTATUS_RESET
        self.mtvec = 0
        self.stvec = 0
        self.mepc = 0
        self.sepc = 0
        self.mcause = 0
        self.scause = 0
        self.medeleg = 0
        self.mideleg = c.MIDELEG_MASK if config.mideleg_hardwired else 0
        self.mie = 0
        self.satp = 0
        self.menvcfg = 0
        self.stimecmp = (1 << 64) - 1
        # mip is split between software-writable bits and hardware lines
        # (CLINT/PLIC wires).  Reads OR the two together.
        self.mip_sw = 0
        self.mip_hw = 0
        self.pmpcfg = [0] * 64
        self.pmpaddr = [0] * 64
        self._simple = {addr: reset for addr, (reset, _mask) in _SIMPLE_CSRS.items()}
        self._simple.update({addr: 0 for addr in config.vendor_csrs})
        if config.has_h_extension:
            self._simple.update(
                {addr: reset for addr, (reset, _mask) in _H_CSRS.items()}
            )
            self._simple[c.CSR_MTINST] = 0
            self._simple[c.CSR_MTVAL2] = 0

    # -- interrupt lines -------------------------------------------------

    def set_interrupt_line(self, irq: int, level: bool) -> None:
        """Drive a hardware interrupt line (MSIP/MTIP/MEIP/SEIP)."""
        mask = 1 << irq
        if level:
            self.mip_hw |= mask
        else:
            self.mip_hw &= ~mask

    @property
    def mip(self) -> int:
        value = (self.mip_sw | self.mip_hw) & c.MIP_MASK
        if self.config.has_sstc and self.menvcfg & c.MENVCFG_STCE:
            if self.time_source() >= self.stimecmp:
                value |= c.MIP_STIP
            else:
                value &= ~c.MIP_STIP
        return value

    # -- access ---------------------------------------------------------

    def exists(self, addr: int) -> bool:
        """Whether the CSR is implemented on this platform."""
        return addr in self.table

    def read(self, addr: int) -> int:
        """Architectural read (no privilege check)."""
        try:
            csr = self.table[addr]
        except KeyError:
            raise KeyError(f"CSR {addr:#x} does not exist") from None
        reader = csr.reader
        if reader is not None:
            return reader(self)
        field = csr.field
        if field is None:
            return self._simple[addr]
        return getattr(self, field)

    def write(self, addr: int, value: int) -> None:
        """Architectural write with WARL legalization (no privilege check)."""
        try:
            csr = self.table[addr]
        except KeyError:
            raise KeyError(f"CSR {addr:#x} does not exist") from None
        if csr.read_only:
            raise KeyError(f"CSR {addr:#x} is read-only")
        writer = csr.writer
        if writer is not None:
            writer(self, value & c.XMASK)
        elif csr.field is None:
            self._simple[addr] = value & csr.mask
        else:
            setattr(self, csr.field, value & csr.mask)

    # -- state protocol (checkpoints, verification harness) --------------

    def snapshot_state(self) -> dict:
        """Every field but the wiring, keyed by attribute name (``_simple``
        as ``simple``); generic over ``__dict__``, like VirtContext's."""
        state = self.__dict__.copy()
        for name in _NOT_STATE:
            del state[name]
        state["simple"] = state.pop("_simple").copy()
        state["pmpcfg"] = state["pmpcfg"].copy()
        state["pmpaddr"] = state["pmpaddr"].copy()
        return state

    def restore_state(self, snap: dict) -> None:
        fields = self.__dict__
        fields.update(snap)
        fields["_simple"] = fields.pop("simple").copy()
        fields["pmpcfg"] = snap["pmpcfg"].copy()
        fields["pmpaddr"] = snap["pmpaddr"].copy()


@functools.cache
def csr_table(config) -> Mapping[int, Csr]:
    """Every CSR implemented on ``config``, by address (read-only).

    Vendor CSRs, the H extension, Sstc, the hardware ``time`` CSR and the
    PMP entry count all come from the (frozen) config, so one table serves
    every CsrFile of that config.
    """
    table: dict[int, Csr] = {}

    def csr(addr: int, field: Optional[str] = None, mask: int = c.XMASK,
            reader=None, writer=None) -> None:
        table[addr] = Csr(c.csr_min_privilege(addr), c.csr_is_read_only(addr),
                          field, mask, reader, writer)

    def constant(value: int) -> Callable[[CsrFile], int]:
        return lambda f: value

    csr(c.CSR_MSTATUS, "mstatus", writer=_legalized("mstatus", legalize_mstatus))
    csr(c.CSR_SSTATUS, reader=lambda f: f.mstatus & c.SSTATUS_MASK,
        writer=_write_sstatus)
    csr(c.CSR_MISA, reader=constant(config.misa), writer=_ignore)
    csr(c.CSR_MEDELEG, "medeleg", c.MEDELEG_MASK)
    csr(c.CSR_MIDELEG, "mideleg", c.MIDELEG_MASK,
        writer=_write_mideleg_hardwired if config.mideleg_hardwired else None)
    csr(c.CSR_MIE, "mie", c.MIP_MASK)
    csr(c.CSR_SIE, reader=lambda f: f.mie & f.mideleg & c.SIP_MASK,
        writer=_write_sie)
    csr(c.CSR_MIP, "mip_sw", c.MIP_WRITABLE, reader=CsrFile.mip.fget)
    csr(c.CSR_SIP, reader=lambda f: f.mip & f.mideleg & c.SIP_MASK,
        writer=_write_sip)
    csr(c.CSR_MTVEC, "mtvec", writer=_legalized("mtvec", legalize_tvec))
    csr(c.CSR_STVEC, "stvec", writer=_legalized("stvec", legalize_tvec))
    csr(c.CSR_MEPC, "mepc", c.XMASK & ~0x3)
    csr(c.CSR_SEPC, "sepc", c.XMASK & ~0x3)
    csr(c.CSR_MCAUSE, "mcause", c.INTERRUPT_BIT | 0x3F)
    csr(c.CSR_SCAUSE, "scause", c.INTERRUPT_BIT | 0x3F)
    csr(c.CSR_SATP, "satp", writer=_legalized("satp", legalize_satp))
    stce = c.MENVCFG_STCE if config.has_sstc else 0
    csr(c.CSR_MENVCFG, "menvcfg", c.MENVCFG_FIOM | stce)
    for addr, (_reset, mask) in _SIMPLE_CSRS.items():
        csr(addr, mask=mask)
    csr(c.CSR_CYCLE, reader=lambda f: f._simple[c.CSR_MCYCLE])
    csr(c.CSR_INSTRET, reader=lambda f: f._simple[c.CSR_MINSTRET])
    csr(c.CSR_MVENDORID, reader=constant(config.mvendorid))
    csr(c.CSR_MARCHID, reader=constant(config.marchid))
    csr(c.CSR_MIMPID, reader=constant(config.mimpid))
    csr(c.CSR_MHARTID, "hartid")
    csr(c.CSR_MCONFIGPTR, reader=_zero)

    if config.has_sstc:
        csr(c.CSR_STIMECMP, "stimecmp")
    if config.has_hw_time_csr:
        csr(c.CSR_TIME, reader=lambda f: to_u64(f.time_source()))
    if config.has_h_extension:
        for addr, (_reset, mask) in _H_CSRS.items():
            if not mask:  # bare-only atp registers: writes ignored
                csr(addr, writer=_ignore)
            elif addr in _H_PENDING:
                csr(addr, writer=_set_bits(addr, mask))
            else:
                csr(addr, mask=mask)
        csr(c.CSR_MTINST)
        csr(c.CSR_MTVAL2)
        csr(c.CSR_HGEIP, reader=_zero)
    for addr in config.vendor_csrs:
        csr(addr)

    # PMP.  RV64 has only the even pmpcfg registers.  Registers past the
    # implemented entries are WARL read-zero/ignore-write, so software can
    # probe the entry count without trapping — which unmodified firmware
    # relies on when running on the (smaller) virtual PMP file.
    for first in range(0, 64, 8):
        csr(c.CSR_PMPCFG0 + first // 4,
            reader=functools.partial(_read_pmpcfg, first=first),
            writer=(functools.partial(_write_pmpcfg, first=first)
                    if first < config.pmp_count else _ignore))
    for index in range(64):
        csr(c.CSR_PMPADDR0 + index,
            reader=functools.partial(_read_pmpaddr, index=index),
            writer=(functools.partial(_write_pmpaddr, index=index)
                    if index < config.pmp_count else _ignore))

    # Hardwired-zero performance counters and event selectors.
    for offset in range(29):
        csr(c.CSR_MHPMCOUNTER3 + offset, reader=_zero, writer=_ignore)
        csr(c.CSR_MHPMEVENT3 + offset, reader=_zero, writer=_ignore)
        csr(c.CSR_HPMCOUNTER3 + offset, reader=_zero)
    return MappingProxyType(table)


def known_csr_addresses(config) -> list[int]:
    """The CSRs verification enumerates on ``config``: every implemented
    one but the hardwired-zero performance counters and the PMP registers
    past the implemented entries."""
    used_pmpcfgs = 2 * ((config.pmp_count + 7) // 8)
    skipped = {
        *range(c.CSR_PMPCFG0 + used_pmpcfgs, c.CSR_PMPCFG15 + 1),
        *range(c.CSR_PMPADDR0 + config.pmp_count, c.CSR_PMPADDR63 + 1),
    }
    for base in (c.CSR_MHPMCOUNTER3, c.CSR_MHPMEVENT3, c.CSR_HPMCOUNTER3):
        skipped.update(range(base, base + 29))
    return sorted(csr_table(config).keys() - skipped)
