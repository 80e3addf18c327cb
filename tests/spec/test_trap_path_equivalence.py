"""The trap-path helpers against straightforward reference implementations.

``take_trap`` does its mstatus and vector arithmetic inline, and
``CsrFile.write`` probes plain-storage CSRs before its named cases.  The
references below are the field-by-field and if-chain forms those replace;
the rewritten helpers must agree with them on every input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import constants as c
from repro.isa.bits import get_field, set_field, to_u64
from repro.spec.csrs import (
    CsrFile,
    _H_CSRS,
    _SIMPLE_CSRS,
    legalize_mstatus,
    legalize_satp,
    legalize_tvec,
)
from repro.spec.platform import PREMIER_P550, RVA23_MACHINE, VISIONFIVE2
from repro.spec.state import MachineState
from repro.spec.traps import Trap, take_trap, trap_target_mode

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
modes = st.sampled_from([c.U_MODE, c.S_MODE, c.M_MODE])
PLATFORMS = [VISIONFIVE2, PREMIER_P550, RVA23_MACHINE]


# -- take_trap -----------------------------------------------------------


def _reference_vector(tvec: int, trap: Trap) -> int:
    base = tvec & c.TVEC_BASE_MASK
    if trap.is_interrupt and (tvec & c.TVEC_MODE_MASK) == c.TvecMode.VECTORED:
        return base + 4 * trap.cause
    return base


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


# -- CsrFile.write --------------------------------------------------------

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
        f._write_pmpcfg((addr - c.CSR_PMPCFG0) * 4, value)
    elif c.CSR_PMPADDR0 <= addr <= c.CSR_PMPADDR63:
        f._write_pmpaddr(addr - c.CSR_PMPADDR0, value)
    elif c.CSR_MHPMCOUNTER3 <= addr < c.CSR_MHPMCOUNTER3 + 29:
        pass
    elif c.CSR_MHPMEVENT3 <= addr < c.CSR_MHPMEVENT3 + 29:
        pass
    elif addr in _SIMPLE_CSRS:
        f._simple[addr] = value & _SIMPLE_CSRS[addr][1]
    elif addr in f.config.vendor_csrs:
        f._simple[addr] = value
    elif addr in _H_CSRS:
        _reset, mask = _H_CSRS[addr]
        if addr in (c.CSR_HIP, c.CSR_VSIP, c.CSR_HVIP):
            f._simple[addr] = (f._simple[addr] & ~mask) | (value & mask)
        else:
            f._simple[addr] = value & mask if mask else f._simple[addr]
    elif addr in (c.CSR_MTINST, c.CSR_MTVAL2):
        f._simple[addr] = value
    else:
        raise KeyError(f"CSR {addr:#x} does not exist or is read-only")


def _outcome(action):
    try:
        action()
    except KeyError:
        return KeyError
    return None


def _write_both(config, addr, value, before=()):
    fast, reference = CsrFile(config), CsrFile(config)
    for prior_addr, prior_value in before:
        fast.write(prior_addr, prior_value)
        reference.write(prior_addr, prior_value)
    fast_error = _outcome(lambda: fast.write(addr, value))
    reference_error = _outcome(lambda: reference_write(reference, addr, value))
    assert fast_error == reference_error, hex(addr)
    assert fast.snapshot_state() == reference.snapshot_state(), hex(addr)
    return fast_error


class TestCsrWriteEquivalence:
    def test_simple_storage_is_disjoint_from_named_cases_and_ranges(self):
        for addr in _SIMPLE_CSRS:
            assert addr not in NAMED_WRITES, hex(addr)
            assert addr not in _H_CSRS, hex(addr)
            assert not any(low <= addr < high for low, high in RANGES), hex(addr)
            for config in PLATFORMS:
                assert addr not in config.vendor_csrs, hex(addr)

    @pytest.mark.parametrize("config", PLATFORMS, ids=lambda p: p.name)
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
                set(_SIMPLE_CSRS) | NAMED_WRITES | set(_H_CSRS)
                | {c.CSR_MTINST, c.CSR_MTVAL2, 0x7C0, 0x7C1}
            )),
            st.integers(min_value=c.CSR_PMPCFG0, max_value=c.CSR_PMPADDR63),
            st.integers(min_value=0, max_value=0xFFF),
        ),
        value=st.integers(min_value=0, max_value=(1 << 70) - 1),
        before=st.lists(
            st.tuples(st.sampled_from(sorted(NAMED_WRITES | set(_SIMPLE_CSRS))), u64),
            max_size=4,
        ),
    )
    def test_random_writes_agree(self, config, addr, value, before):
        _write_both(config, addr, value, before)

    @pytest.mark.parametrize("config", PLATFORMS, ids=lambda p: p.name)
    def test_reads_of_simple_storage_agree_with_ranged_path(self, config):
        f = CsrFile(config)
        for addr, (_reset, mask) in _SIMPLE_CSRS.items():
            f.write(addr, 0x1234_5678_9ABC_DEF0 + addr)
            assert f.read(addr) == f._read_ranged(addr)
            assert f.read(addr) == (0x1234_5678_9ABC_DEF0 + addr) & mask
