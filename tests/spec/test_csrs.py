"""Reference CSR file: WARL legalization, views, and existence."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import constants as c
from repro.spec.csrs import (
    CsrFile,
    known_csr_addresses,
    legalize_mstatus,
    legalize_pmpcfg_byte,
    legalize_satp,
    legalize_tvec,
)
from repro.spec.platform import (
    PLATFORMS,
    PREMIER_P550,
    RVA23_MACHINE,
    VISIONFIVE2,
)

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@pytest.fixture
def csrs():
    return CsrFile(VISIONFIVE2)


class TestMstatusLegalization:
    def test_reset_value(self, csrs):
        assert (csrs.mstatus >> 11) & 3 == 3  # MPP = M at reset
        assert (csrs.mstatus >> 32) & 3 == 2  # UXL = 64-bit

    def test_mpp_rejects_reserved_value(self, csrs):
        before = csrs.mstatus
        csrs.write(c.CSR_MSTATUS, 2 << 11)
        assert (csrs.mstatus >> 11) & 3 == (before >> 11) & 3

    @pytest.mark.parametrize("mpp", [0, 1, 3])
    def test_mpp_accepts_supported_values(self, csrs, mpp):
        csrs.write(c.CSR_MSTATUS, mpp << 11)
        assert (csrs.mstatus >> 11) & 3 == mpp

    def test_uxl_sxl_read_only(self, csrs):
        csrs.write(c.CSR_MSTATUS, 0)
        assert (csrs.mstatus >> 32) & 3 == 2
        assert (csrs.mstatus >> 34) & 3 == 2

    def test_sd_follows_fs(self, csrs):
        csrs.write(c.CSR_MSTATUS, 3 << 13)  # FS = dirty
        assert csrs.mstatus >> 63 == 1
        csrs.write(c.CSR_MSTATUS, 0)
        assert csrs.mstatus >> 63 == 0

    def test_mie_sie_writable(self, csrs):
        csrs.write(c.CSR_MSTATUS, c.MSTATUS_MIE | c.MSTATUS_SIE)
        assert csrs.mstatus & c.MSTATUS_MIE
        assert csrs.mstatus & c.MSTATUS_SIE

    @given(u64)
    def test_legalization_idempotent(self, value):
        once = legalize_mstatus(0, value)
        assert legalize_mstatus(0, once) | (once & c.MSTATUS_MPP) == \
            once | (once & c.MSTATUS_MPP)
        # Fully idempotent when applied to its own output with same old.
        assert legalize_mstatus(once, once) == once

    @given(u64)
    def test_reserved_bits_never_set(self, value):
        result = legalize_mstatus(0, value)
        reserved = ~(
            c.MSTATUS_WRITABLE_MASK | c.MSTATUS_UXL | c.MSTATUS_SXL | c.MSTATUS_SD
        ) & ((1 << 64) - 1)
        assert result & reserved == 0


class TestSstatusView:
    def test_sstatus_is_masked_view(self, csrs):
        csrs.write(c.CSR_MSTATUS, c.MSTATUS_SIE | c.MSTATUS_MIE | c.MSTATUS_SUM)
        sstatus = csrs.read(c.CSR_SSTATUS)
        assert sstatus & c.MSTATUS_SIE
        assert sstatus & c.MSTATUS_SUM
        assert not sstatus & c.MSTATUS_MIE  # M-only field hidden

    def test_sstatus_write_cannot_touch_m_fields(self, csrs):
        before_mie = csrs.mstatus & c.MSTATUS_MIE
        csrs.write(c.CSR_SSTATUS, c.MSTATUS_MIE | c.MSTATUS_SIE)
        assert csrs.mstatus & c.MSTATUS_MIE == before_mie
        assert csrs.mstatus & c.MSTATUS_SIE

    @given(u64)
    def test_sstatus_write_confined_to_mask(self, value):
        csrs = CsrFile(VISIONFIVE2)
        before = csrs.mstatus
        csrs.write(c.CSR_SSTATUS, value)
        changed = csrs.mstatus ^ before
        assert changed & ~c.SSTATUS_MASK == 0


class TestTvecLegalization:
    def test_direct_mode(self, csrs):
        csrs.write(c.CSR_MTVEC, 0x8000_0000)
        assert csrs.mtvec == 0x8000_0000

    def test_vectored_mode(self, csrs):
        csrs.write(c.CSR_MTVEC, 0x8000_0001)
        assert csrs.mtvec == 0x8000_0001

    @pytest.mark.parametrize("reserved_mode", [2, 3])
    def test_reserved_mode_keeps_old(self, csrs, reserved_mode):
        csrs.write(c.CSR_MTVEC, 0x8000_0001)
        csrs.write(c.CSR_MTVEC, 0x9000_0000 | reserved_mode)
        assert csrs.mtvec == 0x9000_0001  # new base, old mode

    def test_legalize_tvec_pure(self):
        assert legalize_tvec(0x1, 0x1002) == 0x1001


class TestEpcAndCause:
    def test_mepc_low_bits_cleared(self, csrs):
        csrs.write(c.CSR_MEPC, 0x8000_0003)
        assert csrs.mepc == 0x8000_0000

    def test_sepc_low_bits_cleared(self, csrs):
        csrs.write(c.CSR_SEPC, 0x8000_0006)
        assert csrs.sepc == 0x8000_0004

    def test_mcause_masked(self, csrs):
        csrs.write(c.CSR_MCAUSE, (1 << 63) | 0xFFF)
        assert csrs.mcause == (1 << 63) | 0x3F


class TestSatp:
    def test_bare_mode_accepted(self, csrs):
        csrs.write(c.CSR_SATP, 0)
        assert csrs.satp == 0

    def test_sv39_accepted(self, csrs):
        value = (8 << 60) | 0x12345
        csrs.write(c.CSR_SATP, value)
        assert csrs.satp == value

    def test_unsupported_mode_ignored(self, csrs):
        csrs.write(c.CSR_SATP, (8 << 60) | 0x1)
        before = csrs.satp
        csrs.write(c.CSR_SATP, (3 << 60) | 0x999)  # reserved mode
        assert csrs.satp == before

    def test_legalize_satp_pure(self):
        assert legalize_satp(0x42, 5 << 60) == 0x42


class TestInterruptRegisters:
    def test_mie_masked(self, csrs):
        csrs.write(c.CSR_MIE, (1 << 64) - 1)
        assert csrs.mie == c.MIP_MASK

    def test_mip_software_writable_bits(self, csrs):
        csrs.write(c.CSR_MIP, (1 << 64) - 1)
        assert csrs.mip == c.MIP_WRITABLE

    def test_mip_hardware_lines(self, csrs):
        csrs.set_interrupt_line(c.IRQ_MTI, True)
        assert csrs.mip & c.MIP_MTIP
        # MTIP is not software-clearable through mip writes.
        csrs.write(c.CSR_MIP, 0)
        assert csrs.mip & c.MIP_MTIP
        csrs.set_interrupt_line(c.IRQ_MTI, False)
        assert not csrs.mip & c.MIP_MTIP

    def test_sie_is_delegated_view(self, csrs):
        csrs.write(c.CSR_MIDELEG, c.MIP_SSIP)
        csrs.write(c.CSR_MIE, c.MIP_SSIP | c.MIP_STIP | c.MIP_MTIP)
        assert csrs.read(c.CSR_SIE) == c.MIP_SSIP

    def test_sie_write_limited_by_delegation(self, csrs):
        csrs.write(c.CSR_MIDELEG, c.MIP_SSIP)
        csrs.write(c.CSR_SIE, c.SIP_MASK)
        assert csrs.mie == c.MIP_SSIP

    def test_sip_write_only_ssip(self, csrs):
        csrs.write(c.CSR_MIDELEG, c.SIP_MASK)
        csrs.write(c.CSR_SIP, c.SIP_MASK)
        assert csrs.mip_sw == c.MIP_SSIP

    def test_mideleg_masked(self, csrs):
        csrs.write(c.CSR_MIDELEG, (1 << 64) - 1)
        assert csrs.mideleg == c.MIDELEG_MASK

    def test_medeleg_masked(self, csrs):
        csrs.write(c.CSR_MEDELEG, (1 << 64) - 1)
        assert csrs.medeleg == c.MEDELEG_MASK

    def test_mideleg_hardwired_platform(self):
        csrs = CsrFile(VISIONFIVE2.with_overrides(mideleg_hardwired=True))
        assert csrs.mideleg == c.MIDELEG_MASK
        csrs.write(c.CSR_MIDELEG, 0)
        assert csrs.mideleg == c.MIDELEG_MASK


class TestPmpRegisters:
    def test_cfg_roundtrip(self, csrs):
        csrs.write(c.CSR_PMPCFG0, 0x1F1F)
        assert csrs.pmpcfg[0] == 0x1F
        assert csrs.pmpcfg[1] == 0x1F

    def test_w_without_r_rejected(self, csrs):
        csrs.write(c.CSR_PMPCFG0, c.PMP_W)
        assert csrs.pmpcfg[0] == 0

    def test_legalize_byte_pure(self):
        assert legalize_pmpcfg_byte(0, c.PMP_W | c.PMP_R) == c.PMP_W | c.PMP_R
        assert legalize_pmpcfg_byte(0x7, c.PMP_W) == 0x7  # keeps old

    def test_reserved_bits_cleared(self, csrs):
        csrs.write(c.CSR_PMPCFG0, 0x60 | c.PMP_R)  # bits 5/6 reserved
        assert csrs.pmpcfg[0] == c.PMP_R

    def test_locked_entry_not_writable(self, csrs):
        csrs.write(c.CSR_PMPCFG0, c.PMP_L | c.PMP_R)
        csrs.write(c.CSR_PMPCFG0, c.PMP_R | c.PMP_W | c.PMP_X)
        assert csrs.pmpcfg[0] == c.PMP_L | c.PMP_R

    def test_locked_entry_addr_not_writable(self, csrs):
        csrs.write(c.CSR_PMPADDR0, 0x100)
        csrs.write(c.CSR_PMPCFG0, c.PMP_L | c.PMP_R)
        csrs.write(c.CSR_PMPADDR0, 0x200)
        assert csrs.pmpaddr[0] == 0x100

    def test_locked_tor_locks_previous_addr(self, csrs):
        tor_locked = c.PMP_L | (int(c.PmpAddressMode.TOR) << c.PMP_A_SHIFT)
        csrs.write(c.CSR_PMPCFG0, tor_locked << 8)  # entry 1 locked TOR
        csrs.write(c.CSR_PMPADDR0, 0x400)
        assert csrs.pmpaddr[0] == 0  # write ignored

    def test_beyond_count_reads_zero_ignores_writes(self):
        csrs = CsrFile(VISIONFIVE2)  # 8 entries
        high = c.CSR_PMPADDR0 + 12
        assert csrs.exists(high)
        csrs.write(high, 0x1234)
        assert csrs.read(high) == 0

    def test_pmpaddr_masked_to_54_bits(self, csrs):
        csrs.write(c.CSR_PMPADDR0, (1 << 64) - 1)
        assert csrs.pmpaddr[0] == (1 << 54) - 1

    def test_odd_pmpcfg_absent_on_rv64(self, csrs):
        assert not csrs.exists(c.CSR_PMPCFG0 + 1)


class TestExistence:
    def test_time_absent_on_vf2(self, csrs):
        assert not csrs.exists(c.CSR_TIME)

    def test_time_present_on_rva23(self):
        assert CsrFile(RVA23_MACHINE).exists(c.CSR_TIME)

    def test_stimecmp_requires_sstc(self, csrs):
        assert not csrs.exists(c.CSR_STIMECMP)
        assert CsrFile(RVA23_MACHINE).exists(c.CSR_STIMECMP)

    def test_h_csrs_require_extension(self, csrs):
        assert not csrs.exists(c.CSR_HSTATUS)
        assert CsrFile(PREMIER_P550).exists(c.CSR_HSTATUS)

    def test_vendor_csrs(self):
        csrs = CsrFile(PREMIER_P550)
        assert csrs.exists(0x7C0)
        csrs.write(0x7C0, 0x1)
        assert csrs.read(0x7C0) == 0x1

    def test_unknown_csr_raises(self, csrs):
        with pytest.raises(KeyError):
            csrs.read(0x123)

    def test_known_addresses_all_exist(self):
        for config in (VISIONFIVE2, PREMIER_P550, RVA23_MACHINE):
            csrs = CsrFile(config)
            for addr in known_csr_addresses(config):
                assert csrs.exists(addr), hex(addr)
                csrs.read(addr)  # must not raise


class TestRawAccessFollowsExistence:
    """Raw ``read``/``write`` accept exactly the CSRs ``exists`` reports;
    a write to a read-only one is rejected too, and a rejected write
    leaves the state untouched."""

    @pytest.mark.parametrize("config", PLATFORMS.values(),
                             ids=lambda p: p.name)
    def test_every_address(self, config):
        csrs = CsrFile(config)
        before = csrs.snapshot_state()
        for addr in range(0x1000):
            if csrs.exists(addr):
                csrs.read(addr)
            else:
                with pytest.raises(KeyError):
                    csrs.read(addr)
            if csrs.exists(addr) and not c.csr_is_read_only(addr):
                continue
            with pytest.raises(KeyError):
                csrs.write(addr, (1 << 64) - 1)
            assert csrs.snapshot_state() == before, hex(addr)

    def test_odd_pmpcfg_write_leaves_pmpcfg0_alone(self, csrs):
        with pytest.raises(KeyError):
            csrs.write(c.CSR_PMPCFG0 + 1, 0x0F0F_0F0F_0F0F_0F0F)
        assert csrs.read(c.CSR_PMPCFG0) == 0
        assert csrs.pmpcfg[4:8] == [0] * 4

    def test_last_odd_pmpcfg_read_is_a_key_error(self, csrs):
        with pytest.raises(KeyError):
            csrs.read(c.CSR_PMPCFG15)

    def test_h_write_without_h_adds_no_state(self, csrs):
        with pytest.raises(KeyError):
            csrs.write(c.CSR_HTVAL, 5)
        assert c.CSR_HTVAL not in csrs.snapshot_state()["simple"]

    @pytest.mark.parametrize("addr", [c.CSR_STIMECMP, c.CSR_TIME, c.CSR_HGEIP],
                             ids=["stimecmp", "time", "hgeip"])
    def test_absent_extension_csrs_are_unreadable(self, csrs, addr):
        with pytest.raises(KeyError):
            csrs.read(addr)


class TestMachineInformation:
    def test_identity_registers(self):
        csrs = CsrFile(VISIONFIVE2, hartid=2)
        assert csrs.read(c.CSR_MHARTID) == 2
        assert csrs.read(c.CSR_MVENDORID) == VISIONFIVE2.mvendorid
        assert csrs.read(c.CSR_MARCHID) == VISIONFIVE2.marchid

    def test_misa_reports_extensions(self, csrs):
        misa = csrs.read(c.CSR_MISA)
        assert misa >> 62 == 2  # RV64
        assert misa & (1 << 18)  # S
        assert misa & (1 << 20)  # U

    def test_misa_write_ignored(self, csrs):
        before = csrs.read(c.CSR_MISA)
        csrs.write(c.CSR_MISA, 0)
        assert csrs.read(c.CSR_MISA) == before


class TestSstc:
    def test_stip_follows_stimecmp(self):
        now = [100]
        csrs = CsrFile(RVA23_MACHINE, time_source=lambda: now[0])
        csrs.write(c.CSR_MENVCFG, c.MENVCFG_STCE)
        csrs.write(c.CSR_STIMECMP, 200)
        assert not csrs.mip & c.MIP_STIP
        now[0] = 200
        assert csrs.mip & c.MIP_STIP

    def test_stce_not_writable_without_sstc(self):
        csrs = CsrFile(VISIONFIVE2)
        csrs.write(c.CSR_MENVCFG, c.MENVCFG_STCE)
        assert csrs.menvcfg & c.MENVCFG_STCE == 0


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self, csrs):
        csrs.write(c.CSR_MSCRATCH, 0x1234)
        csrs.write(c.CSR_PMPADDR0, 0x999)
        snap = csrs.snapshot_state()
        csrs.write(c.CSR_MSCRATCH, 0)
        csrs.write(c.CSR_PMPADDR0, 0)
        csrs.restore_state(snap)
        assert csrs.read(c.CSR_MSCRATCH) == 0x1234
        assert csrs.pmpaddr[0] == 0x999
