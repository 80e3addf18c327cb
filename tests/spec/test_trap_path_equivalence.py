"""The trap-path helpers against straightforward reference implementations.

``take_trap`` does its mstatus and vector arithmetic inline, and
``CsrFile`` answers every CSR question from one per-config table.  The
references below are the field-by-field form and the if-chains and
tables that one replaced; the rewritten helpers must agree with them on
every input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import constants as c
from repro.isa.bits import get_field, set_field, to_u64
from repro.spec.csrs import (
    CsrFile,
    known_csr_addresses,
    legalize_mstatus,
    legalize_pmpcfg_byte,
    legalize_satp,
    legalize_tvec,
)
from repro.spec.platform import (
    PLATFORMS as BY_NAME,
    PREMIER_P550,
    QEMU_VIRT,
    RVA23_MACHINE,
    VISIONFIVE2,
)
from repro.spec.state import MachineState
from repro.spec.step import csr_access_allowed
from repro.spec.traps import Trap, take_trap
from repro.verif.emulation import virtual_platform

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
modes = st.sampled_from([c.U_MODE, c.S_MODE, c.M_MODE])
#: Every shipped platform, plus two virtual platforms (fewer PMP
#: entries, hard-wired mideleg).
PLATFORMS = [*BY_NAME.values(), virtual_platform(VISIONFIVE2),
             virtual_platform(RVA23_MACHINE)]


def _platform_id(config) -> str:
    return config.name + ("-virtual" if config.mideleg_hardwired else "")


# -- take_trap -----------------------------------------------------------


def _reference_vector(tvec: int, trap: Trap) -> int:
    base = tvec & c.TVEC_BASE_MASK
    if trap.is_interrupt and (tvec & c.TVEC_MODE_MASK) == c.TvecMode.VECTORED:
        return base + 4 * trap.cause
    return base


def trap_target_mode(state: MachineState, trap: Trap) -> c.PrivilegeLevel:
    """Reference copy of the delegation rule take_trap applies inline."""
    if state.mode == c.M_MODE:
        return c.M_MODE
    deleg = state.csr.mideleg if trap.is_interrupt else state.csr.medeleg
    if deleg & (1 << trap.cause):
        return c.S_MODE
    return c.M_MODE


def reference_take_trap(state: MachineState, trap: Trap) -> c.PrivilegeLevel:
    target = trap_target_mode(state, trap)
    mstatus = state.csr.mstatus
    if target == c.M_MODE:
        state.csr.mepc = state.pc & ~0x3
        state.csr.mcause = trap.mcause_value
        state.csr.write(c.CSR_MTVAL, trap.tval)
        mstatus = set_field(mstatus, c.MSTATUS_MPP, int(state.mode))
        mie = get_field(mstatus, c.MSTATUS_MIE)
        mstatus = set_field(mstatus, c.MSTATUS_MPIE, mie)
        mstatus = set_field(mstatus, c.MSTATUS_MIE, 0)
        state.pc = _reference_vector(state.csr.mtvec, trap)
    else:
        state.csr.sepc = state.pc & ~0x3
        state.csr.scause = trap.mcause_value
        state.csr.write(c.CSR_STVAL, trap.tval)
        mstatus = set_field(mstatus, c.MSTATUS_SPP, int(state.mode) & 1)
        sie = get_field(mstatus, c.MSTATUS_SIE)
        mstatus = set_field(mstatus, c.MSTATUS_SPIE, sie)
        mstatus = set_field(mstatus, c.MSTATUS_SIE, 0)
        state.pc = _reference_vector(state.csr.stvec, trap)
    state.csr.mstatus = mstatus
    state.mode = target
    state.waiting_for_interrupt = False
    return target


def _state(mstatus, mode, mtvec, stvec, medeleg, mideleg, pc) -> MachineState:
    state = MachineState(VISIONFIVE2)
    state.csr.mstatus = mstatus
    state.csr.mtvec = mtvec
    state.csr.stvec = stvec
    state.csr.medeleg = medeleg
    state.csr.mideleg = mideleg
    state.mode = mode
    state.pc = pc
    state.waiting_for_interrupt = True
    return state


def _observable(state: MachineState) -> tuple:
    return (state.pc, state.mode, state.waiting_for_interrupt,
            state.csr.snapshot_state())


class TestTakeTrapEquivalence:
    @settings(max_examples=400)
    @given(
        mstatus=u64, mode=modes,
        mtvec=u64, stvec=u64,
        medeleg=u64, mideleg=u64, pc=u64,
        cause=st.integers(min_value=0, max_value=63),
        is_interrupt=st.booleans(), tval=u64,
    )
    def test_matches_field_by_field_reference(
        self, mstatus, mode, mtvec, stvec, medeleg, mideleg, pc, cause,
        is_interrupt, tval,
    ):
        trap = Trap(cause, is_interrupt=is_interrupt, tval=tval)
        args = (mstatus, mode, mtvec, stvec, medeleg, mideleg, pc)
        fast, reference = _state(*args), _state(*args)
        assert take_trap(fast, trap) == reference_take_trap(reference, trap)
        assert _observable(fast) == _observable(reference)

    @pytest.mark.parametrize("mode", [c.U_MODE, c.S_MODE])
    @pytest.mark.parametrize("tvec_mode", [0, 1, 2, 3])
    def test_vectored_and_delegated_corners(self, mode, tvec_mode):
        for is_interrupt in (False, True):
            for deleg in (0, (1 << 64) - 1):
                trap = Trap(c.IRQ_STI, is_interrupt=is_interrupt, tval=7)
                args = ((1 << 64) - 1, mode, 0x8000_0000 | tvec_mode,
                        0x8400_0000 | tvec_mode, deleg, deleg, 0x8020_0006)
                fast, reference = _state(*args), _state(*args)
                assert take_trap(fast, trap) == reference_take_trap(reference, trap)
                assert _observable(fast) == _observable(reference)


# -- CsrFile: frozen copy of the pre-table dispatch ----------------------
# The write chain, read table, ranged reads, existence chain and access
# rule that the per-config CSR table replaced, verbatim in logic and with
# their own copies of the storage data.  The old read and write accepted
# some addresses the old ``exists`` rejected; each reference raises
# ``KeyError`` for those, because the table makes the two agree.

REF_SIMPLE = {
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

REF_H = {
    c.CSR_HSTATUS: (0x2 << 32, 0x30_01FF_E7C0),
    c.CSR_HEDELEG: (0, c.MEDELEG_MASK),
    c.CSR_HIDELEG: (0, (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI)),
    c.CSR_HIE: (0, (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI) | (1 << c.IRQ_SGEI)),
    c.CSR_HIP: (0, 1 << c.IRQ_VSSI),
    c.CSR_HVIP: (0, (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI)),
    c.CSR_HCOUNTEREN: (0, 0xFFFFFFFF),
    c.CSR_HGEIE: (0, c.XMASK & ~1),
    c.CSR_HTVAL: (0, c.XMASK),
    c.CSR_HTINST: (0, c.XMASK),
    c.CSR_HGATP: (0, 0),
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

REF_KNOWN = frozenset({
    c.CSR_MSTATUS, c.CSR_SSTATUS, c.CSR_MISA, c.CSR_MEDELEG, c.CSR_MIDELEG,
    c.CSR_MIE, c.CSR_SIE, c.CSR_MIP, c.CSR_SIP, c.CSR_MTVEC, c.CSR_STVEC,
    c.CSR_MEPC, c.CSR_SEPC, c.CSR_MCAUSE, c.CSR_SCAUSE, c.CSR_MTVAL,
    c.CSR_STVAL, c.CSR_MSCRATCH, c.CSR_SSCRATCH, c.CSR_SATP, c.CSR_MENVCFG,
    c.CSR_SENVCFG, c.CSR_MCOUNTEREN, c.CSR_SCOUNTEREN, c.CSR_MCOUNTINHIBIT,
    c.CSR_MCYCLE, c.CSR_MINSTRET, c.CSR_CYCLE, c.CSR_INSTRET,
    c.CSR_MVENDORID, c.CSR_MARCHID, c.CSR_MIMPID, c.CSR_MHARTID,
    c.CSR_MCONFIGPTR,
})


def reference_exists(f: CsrFile, addr: int) -> bool:
    """The existence chain the table's key set replaced."""
    if c.CSR_PMPCFG0 <= addr <= c.CSR_PMPCFG15:
        return addr % 2 == 0
    if c.CSR_PMPADDR0 <= addr <= c.CSR_PMPADDR63:
        return True
    if addr in (c.CSR_MHPMCOUNTER3, c.CSR_MHPMEVENT3):
        return True
    if c.CSR_MHPMCOUNTER3 <= addr < c.CSR_MHPMCOUNTER3 + 29:
        return True
    if c.CSR_MHPMEVENT3 <= addr < c.CSR_MHPMEVENT3 + 29:
        return True
    if c.CSR_HPMCOUNTER3 <= addr < c.CSR_HPMCOUNTER3 + 29:
        return True
    if addr == c.CSR_TIME:
        return f.config.has_hw_time_csr
    if addr == c.CSR_STIMECMP:
        return f.config.has_sstc
    if addr in f.config.vendor_csrs:
        return True
    if addr in REF_H or addr in (c.CSR_MTINST, c.CSR_MTVAL2, c.CSR_HGEIP):
        return f.config.has_h_extension
    return addr in REF_KNOWN


REF_READERS = {
    c.CSR_MSTATUS: lambda f: f.mstatus,
    c.CSR_SSTATUS: lambda f: f.mstatus & c.SSTATUS_MASK,
    c.CSR_MISA: lambda f: f.config.misa,
    c.CSR_MEDELEG: lambda f: f.medeleg,
    c.CSR_MIDELEG: lambda f: f.mideleg,
    c.CSR_MIE: lambda f: f.mie,
    c.CSR_SIE: lambda f: f.mie & f.mideleg & c.SIP_MASK,
    c.CSR_MIP: lambda f: f.mip,
    c.CSR_SIP: lambda f: f.mip & f.mideleg & c.SIP_MASK,
    c.CSR_MTVEC: lambda f: f.mtvec,
    c.CSR_STVEC: lambda f: f.stvec,
    c.CSR_MEPC: lambda f: f.mepc,
    c.CSR_SEPC: lambda f: f.sepc,
    c.CSR_MCAUSE: lambda f: f.mcause,
    c.CSR_SCAUSE: lambda f: f.scause,
    c.CSR_SATP: lambda f: f.satp,
    c.CSR_MENVCFG: lambda f: f.menvcfg,
    c.CSR_STIMECMP: lambda f: f.stimecmp,
    c.CSR_MVENDORID: lambda f: f.config.mvendorid,
    c.CSR_MARCHID: lambda f: f.config.marchid,
    c.CSR_MIMPID: lambda f: f.config.mimpid,
    c.CSR_MHARTID: lambda f: f.hartid,
    c.CSR_MCONFIGPTR: lambda f: 0,
    c.CSR_CYCLE: lambda f: f._simple[c.CSR_MCYCLE],
    c.CSR_INSTRET: lambda f: f._simple[c.CSR_MINSTRET],
    c.CSR_TIME: lambda f: to_u64(f.time_source()),
    c.CSR_HGEIP: lambda f: 0,
}


def reference_read(f: CsrFile, addr: int) -> int:
    """The read table, then the ranged reads it fell back to."""
    if not reference_exists(f, addr):
        raise KeyError(f"CSR {addr:#x} does not exist")
    reader = REF_READERS.get(addr)
    if reader is not None:
        return reader(f)
    if c.CSR_PMPCFG0 <= addr <= c.CSR_PMPCFG15:
        base = (addr - c.CSR_PMPCFG0) * 4
        value = 0
        for i in range(8):
            value |= f.pmpcfg[base + i] << (8 * i)
        return value
    if c.CSR_PMPADDR0 <= addr <= c.CSR_PMPADDR63:
        return f.pmpaddr[addr - c.CSR_PMPADDR0]
    if c.CSR_MHPMCOUNTER3 <= addr < c.CSR_MHPMCOUNTER3 + 29:
        return 0
    if c.CSR_MHPMEVENT3 <= addr < c.CSR_MHPMEVENT3 + 29:
        return 0
    if c.CSR_HPMCOUNTER3 <= addr < c.CSR_HPMCOUNTER3 + 29:
        return 0
    if addr in f._simple:
        return f._simple[addr]
    raise KeyError(f"CSR {addr:#x} does not exist")


def _reference_write_pmpcfg(f: CsrFile, first_entry: int, value: int) -> None:
    for i in range(8):
        index = first_entry + i
        if index >= f.config.pmp_count:
            break
        byte = (value >> (8 * i)) & 0xFF
        f.pmpcfg[index] = legalize_pmpcfg_byte(f.pmpcfg[index], byte)


def _reference_write_pmpaddr(f: CsrFile, index: int, value: int) -> None:
    if index >= f.config.pmp_count:
        return
    if f.pmpcfg[index] & c.PMP_L:
        return
    if index + 1 < f.config.pmp_count:
        next_cfg = f.pmpcfg[index + 1]
        next_mode = get_field(next_cfg, c.PMP_A_MASK)
        if next_cfg & c.PMP_L and next_mode == c.PmpAddressMode.TOR:
            return
    f.pmpaddr[index] = value & c.PMP_ADDR_MASK


#: Individually named cases of the write chain (everything but storage
#: and the pmp/hpm ranges).
NAMED_WRITES = frozenset({
    c.CSR_MSTATUS, c.CSR_SSTATUS, c.CSR_MISA, c.CSR_MEDELEG, c.CSR_MIDELEG,
    c.CSR_MIE, c.CSR_SIE, c.CSR_MIP, c.CSR_SIP, c.CSR_MTVEC, c.CSR_STVEC,
    c.CSR_MEPC, c.CSR_SEPC, c.CSR_MCAUSE, c.CSR_SCAUSE, c.CSR_SATP,
    c.CSR_MENVCFG, c.CSR_STIMECMP,
})

RANGES = (
    (c.CSR_PMPCFG0, c.CSR_PMPCFG15 + 1),
    (c.CSR_PMPADDR0, c.CSR_PMPADDR63 + 1),
    (c.CSR_MHPMCOUNTER3, c.CSR_MHPMCOUNTER3 + 29),
    (c.CSR_MHPMEVENT3, c.CSR_MHPMEVENT3 + 29),
    (c.CSR_HPMCOUNTER3, c.CSR_HPMCOUNTER3 + 29),
)


def reference_write(f: CsrFile, addr: int, value: int) -> None:
    """The named-cases-first if-chain ``CsrFile.write`` replaced."""
    if not reference_exists(f, addr):
        raise KeyError(f"CSR {addr:#x} does not exist")
    value = to_u64(value)
    if addr == c.CSR_MSTATUS:
        f.mstatus = legalize_mstatus(f.mstatus, value)
    elif addr == c.CSR_SSTATUS:
        merged = (f.mstatus & ~c.SSTATUS_MASK) | (value & c.SSTATUS_MASK)
        f.mstatus = legalize_mstatus(f.mstatus, merged)
    elif addr == c.CSR_MISA:
        pass
    elif addr == c.CSR_MEDELEG:
        f.medeleg = value & c.MEDELEG_MASK
    elif addr == c.CSR_MIDELEG:
        if f.config.mideleg_hardwired:
            f.mideleg = c.MIDELEG_MASK
        else:
            f.mideleg = value & c.MIDELEG_MASK
    elif addr == c.CSR_MIE:
        f.mie = value & c.MIP_MASK
    elif addr == c.CSR_SIE:
        writable = f.mideleg & c.SIP_MASK
        f.mie = (f.mie & ~writable) | (value & writable)
    elif addr == c.CSR_MIP:
        f.mip_sw = value & c.MIP_WRITABLE
    elif addr == c.CSR_SIP:
        writable = f.mideleg & c.MIP_SSIP
        f.mip_sw = (f.mip_sw & ~writable) | (value & writable)
    elif addr == c.CSR_MTVEC:
        f.mtvec = legalize_tvec(f.mtvec, value)
    elif addr == c.CSR_STVEC:
        f.stvec = legalize_tvec(f.stvec, value)
    elif addr == c.CSR_MEPC:
        f.mepc = value & ~0x3
    elif addr == c.CSR_SEPC:
        f.sepc = value & ~0x3
    elif addr == c.CSR_MCAUSE:
        f.mcause = value & (c.INTERRUPT_BIT | 0x3F)
    elif addr == c.CSR_SCAUSE:
        f.scause = value & (c.INTERRUPT_BIT | 0x3F)
    elif addr == c.CSR_SATP:
        f.satp = legalize_satp(f.satp, value)
    elif addr == c.CSR_MENVCFG:
        mask = c.MENVCFG_FIOM
        if f.config.has_sstc:
            mask |= c.MENVCFG_STCE
        f.menvcfg = value & mask
    elif addr == c.CSR_STIMECMP:
        f.stimecmp = value
    elif c.CSR_PMPCFG0 <= addr <= c.CSR_PMPCFG15:
        _reference_write_pmpcfg(f, (addr - c.CSR_PMPCFG0) * 4, value)
    elif c.CSR_PMPADDR0 <= addr <= c.CSR_PMPADDR63:
        _reference_write_pmpaddr(f, addr - c.CSR_PMPADDR0, value)
    elif c.CSR_MHPMCOUNTER3 <= addr < c.CSR_MHPMCOUNTER3 + 29:
        pass
    elif c.CSR_MHPMEVENT3 <= addr < c.CSR_MHPMEVENT3 + 29:
        pass
    elif addr in REF_SIMPLE:
        f._simple[addr] = value & REF_SIMPLE[addr][1]
    elif addr in f.config.vendor_csrs:
        f._simple[addr] = value
    elif addr in REF_H:
        _reset, mask = REF_H[addr]
        if addr in (c.CSR_HIP, c.CSR_VSIP, c.CSR_HVIP):
            f._simple[addr] = (f._simple[addr] & ~mask) | (value & mask)
        else:
            f._simple[addr] = value & mask if mask else f._simple[addr]
    elif addr in (c.CSR_MTINST, c.CSR_MTVAL2):
        f._simple[addr] = value
    else:
        raise KeyError(f"CSR {addr:#x} does not exist or is read-only")


_COUNTER_ENABLE_BITS = {c.CSR_CYCLE: 0, c.CSR_TIME: 1, c.CSR_INSTRET: 2}


def reference_csr_access_allowed(state: MachineState, csr: int,
                                 is_write: bool) -> bool:
    """The access rule before its static part moved into the table."""
    csr_file = state.csr
    if not reference_exists(csr_file, csr):
        return False
    if is_write and c.csr_is_read_only(csr):
        return False
    mode = state.mode
    if mode < c.csr_min_privilege(csr):
        return False
    if csr == c.CSR_SATP and mode == c.S_MODE and csr_file.mstatus & c.MSTATUS_TVM:
        return False
    if csr in _COUNTER_ENABLE_BITS or c.CSR_HPMCOUNTER3 <= csr < c.CSR_HPMCOUNTER3 + 29:
        bit = _COUNTER_ENABLE_BITS.get(csr, csr - c.CSR_CYCLE)
        mcounteren = reference_read(csr_file, c.CSR_MCOUNTEREN)
        if mode < c.M_MODE and not (mcounteren >> bit) & 1:
            return False
        scounteren = reference_read(csr_file, c.CSR_SCOUNTEREN)
        if mode < c.S_MODE and not (scounteren >> bit) & 1:
            return False
    if csr == c.CSR_STIMECMP and mode == c.S_MODE:
        if not csr_file.menvcfg & c.MENVCFG_STCE:
            return False
    return True


def _outcome(action):
    try:
        return action()
    except KeyError:
        return KeyError


def _write_both(config, addr, value, before=()):
    fast, reference = CsrFile(config), CsrFile(config)
    for prior_addr, prior_value in before:
        assert (_outcome(lambda: fast.write(prior_addr, prior_value))
                == _outcome(lambda: reference_write(reference, prior_addr,
                                                    prior_value)))
    fast_error = _outcome(lambda: fast.write(addr, value))
    reference_error = _outcome(lambda: reference_write(reference, addr, value))
    assert fast_error == reference_error, hex(addr)
    assert fast.snapshot_state() == reference.snapshot_state(), hex(addr)
    return fast_error


class TestCsrWriteEquivalence:
    def test_simple_storage_is_disjoint_from_named_cases_and_ranges(self):
        """The table reads ``_simple`` for exactly its keys, and for no
        named case or range CSR."""
        for config in PLATFORMS:
            f = CsrFile(config)
            from_storage = {addr for addr, csr in f.table.items()
                            if csr.field is None and csr.reader is None}
            assert from_storage == set(f._simple), _platform_id(config)
            for addr in from_storage:
                assert addr not in NAMED_WRITES, hex(addr)
                assert not any(low <= addr < high
                               for low, high in RANGES), hex(addr)

    @pytest.mark.parametrize("config", PLATFORMS, ids=_platform_id)
    def test_every_address_agrees_including_key_errors(self, config):
        missing = 0
        for addr in range(0x1000):
            if _write_both(config, addr, (1 << 64) - 1) is KeyError:
                missing += 1
        assert 0 < missing < 0x1000

    @settings(max_examples=300)
    @given(
        config=st.sampled_from(PLATFORMS),
        addr=st.one_of(
            st.sampled_from(sorted(
                set(REF_SIMPLE) | NAMED_WRITES | set(REF_H)
                | {c.CSR_MTINST, c.CSR_MTVAL2, 0x7C0, 0x7C1}
            )),
            st.integers(min_value=c.CSR_PMPCFG0, max_value=c.CSR_PMPADDR63),
            st.integers(min_value=0, max_value=0xFFF),
        ),
        value=st.integers(min_value=0, max_value=(1 << 70) - 1),
        before=st.lists(
            st.tuples(st.sampled_from(sorted(NAMED_WRITES | set(REF_SIMPLE))), u64),
            max_size=4,
        ),
    )
    def test_random_writes_agree(self, config, addr, value, before):
        _write_both(config, addr, value, before)

    @pytest.mark.parametrize("config", PLATFORMS, ids=_platform_id)
    def test_reads_of_simple_storage_agree_with_ranged_path(self, config):
        f = CsrFile(config)
        for addr, (_reset, mask) in REF_SIMPLE.items():
            f.write(addr, 0x1234_5678_9ABC_DEF0 + addr)
            assert f.read(addr) == reference_read(f, addr)
            assert f.read(addr) == (0x1234_5678_9ABC_DEF0 + addr) & mask


def _busy_file(config) -> CsrFile:
    """A file whose every storage location holds a distinct nonzero value."""
    f = CsrFile(config, hartid=3, time_source=lambda: 0x1234_5678)
    for index, field in enumerate((
        "mstatus", "mtvec", "stvec", "mepc", "sepc", "mcause", "scause",
        "medeleg", "mideleg", "mie", "satp", "menvcfg", "stimecmp",
        "mip_sw", "mip_hw",
    )):
        setattr(f, field, (0x0123_4567_89AB_CDEF * (index + 1)) & c.XMASK)
    for addr in f._simple:
        f._simple[addr] = (0xFEDC_BA98_7654_3210 ^ addr) & c.XMASK
    f.pmpcfg = [(i * 37) & 0xFF for i in range(64)]
    f.pmpaddr = [i * 0x1_0001 for i in range(64)]
    return f


#: (mstatus.TVM, menvcfg.STCE, mcounteren, scounteren): each flag and
#: each counter-enable bit both ways.
ACCESS_STATES = [
    (False, False, 0, 0),
    (True, True, 0xFFFF_FFFF, 0xFFFF_FFFF),
    (True, False, 0b101, 0b010),
    (False, True, 0xFFFF_FFFA, 0xFFFF_FFF5),
]


class TestCsrReadAndAccessEquivalence:
    @pytest.mark.parametrize("config", PLATFORMS, ids=_platform_id)
    def test_every_read_and_existence_agrees(self, config):
        f = _busy_file(config)
        for menvcfg in (0, c.MENVCFG_STCE):
            f.menvcfg = menvcfg
            for addr in range(0x1000):
                assert f.exists(addr) == reference_exists(f, addr), hex(addr)
                assert (_outcome(lambda: f.read(addr))
                        == _outcome(lambda: reference_read(f, addr))), hex(addr)

    @pytest.mark.parametrize("config", PLATFORMS, ids=_platform_id)
    @pytest.mark.parametrize("tvm, stce, mcounteren, scounteren", ACCESS_STATES,
                             ids=["off", "on", "tvm-odd", "stce-even"])
    def test_every_access_check_agrees(self, config, tvm, stce, mcounteren,
                                       scounteren):
        state = MachineState(config)
        csr_file = state.csr
        if tvm:
            csr_file.mstatus |= c.MSTATUS_TVM
        if stce:
            csr_file.menvcfg |= c.MENVCFG_STCE
        csr_file.write(c.CSR_MCOUNTEREN, mcounteren)
        csr_file.write(c.CSR_SCOUNTEREN, scounteren)
        for mode in (c.U_MODE, c.S_MODE, c.M_MODE):
            state.mode = mode
            for csr in range(0x1000):
                for is_write in (False, True):
                    assert (csr_access_allowed(state, csr, is_write)
                            == reference_csr_access_allowed(state, csr, is_write)
                            ), (hex(csr), mode, is_write)


# ``known_csr_addresses`` feeds Table 2's instruction space and the
# verification campaign cells, so its output is pinned as recorded before
# the table replaced the existence chain.
_SUPERVISOR = [0x100, 0x104, 0x105, 0x106, 0x10A, 0x140, 0x141, 0x142,
               0x143, 0x144]
_HYPERVISOR = [0x200, 0x204, 0x205, 0x240, 0x241, 0x242, 0x243, 0x244,
               0x280]
_MACHINE = [0x300, 0x301, 0x302, 0x303, 0x304, 0x305, 0x306, 0x30A, 0x320,
            0x340, 0x341, 0x342, 0x343, 0x344]
_H_MACHINE = [0x34A, 0x34B]
_HS = [0x600, 0x602, 0x603, 0x604, 0x606, 0x607, 0x643, 0x644, 0x645,
       0x64A, 0x680]
_COUNTERS = [0xB00, 0xB02, 0xC00, 0xC02]
_ID = [0xF11, 0xF12, 0xF13, 0xF14, 0xF15]
_PMP8 = [0x3A0, *range(0x3B0, 0x3B8)]
_PMP16 = [0x3A0, 0x3A2, *range(0x3B0, 0x3C0)]

KNOWN_ADDRESSES = {
    VISIONFIVE2.name: [*_SUPERVISOR, 0x180, *_MACHINE, *_PMP8, *_COUNTERS,
                       *_ID],
    PREMIER_P550.name: [*_SUPERVISOR, 0x180, *_HYPERVISOR, *_MACHINE,
                        *_H_MACHINE, *_PMP8, *_HS, 0x7C0, 0x7C1, 0x7C2,
                        0x7C3, *_COUNTERS, 0xE12, *_ID],
    RVA23_MACHINE.name: [*_SUPERVISOR, 0x14D, 0x180, *_HYPERVISOR,
                         *_MACHINE, *_H_MACHINE, *_PMP16, *_HS, 0xB00,
                         0xB02, 0xC00, 0xC01, 0xC02, 0xE12, *_ID],
    QEMU_VIRT.name: [*_SUPERVISOR, 0x180, *_HYPERVISOR, *_MACHINE,
                     *_H_MACHINE, *_PMP16, *_HS, *_COUNTERS, 0xE12, *_ID],
}


@pytest.mark.parametrize("config", BY_NAME.values(), ids=lambda p: p.name)
def test_known_csr_addresses_are_pinned(config):
    assert known_csr_addresses(config) == KNOWN_ADDRESSES[config.name]
