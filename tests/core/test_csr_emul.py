"""Unit tests for the virtual CSR emulation (Miralis's per-CSR logic)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.csr_emul import CsrEffect, VirtCsrError, read_csr, write_csr
from repro.core.vcpu import VirtContext, World
from repro.isa import constants as c
from repro.spec.platform import PREMIER_P550, RVA23_MACHINE, VISIONFIVE2

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@pytest.fixture
def vctx():
    ctx = VirtContext(VISIONFIVE2)
    ctx.virtual_pmp_count = 2
    return ctx


class TestReads:
    def test_identity_registers(self, vctx):
        assert read_csr(vctx, c.CSR_MHARTID) == 0
        assert read_csr(vctx, c.CSR_MVENDORID) == VISIONFIVE2.mvendorid
        assert read_csr(vctx, c.CSR_MISA) == VISIONFIVE2.misa

    def test_time_returns_mtime(self, vctx_rva=None):
        ctx = VirtContext(RVA23_MACHINE)
        assert read_csr(ctx, c.CSR_TIME, mtime=777) == 777

    def test_time_missing_on_vf2(self, vctx):
        with pytest.raises(VirtCsrError):
            read_csr(vctx, c.CSR_TIME, mtime=777)

    def test_sstatus_view(self, vctx):
        write_csr(vctx, c.CSR_MSTATUS, c.MSTATUS_SIE | c.MSTATUS_MIE)
        sstatus = read_csr(vctx, c.CSR_SSTATUS)
        assert sstatus & c.MSTATUS_SIE
        assert not sstatus & c.MSTATUS_MIE

    def test_unknown_csr(self, vctx):
        with pytest.raises(VirtCsrError):
            read_csr(vctx, 0x123)


class TestWrites:
    def test_mstatus_mpp_warl(self, vctx):
        write_csr(vctx, c.CSR_MSTATUS, 2 << 11)
        assert (vctx.mstatus >> 11) & 3 == 3  # kept reset M

    def test_mideleg_hardwired(self, vctx):
        write_csr(vctx, c.CSR_MIDELEG, 0)
        assert vctx.mideleg == c.MIDELEG_MASK

    def test_read_only_raises(self, vctx):
        with pytest.raises(VirtCsrError):
            write_csr(vctx, c.CSR_MHARTID, 1)

    def test_mie_effect(self, vctx):
        assert write_csr(vctx, c.CSR_MIE, c.MIP_MTIP) & CsrEffect.INTERRUPTS

    def test_pmp_effect(self, vctx):
        assert write_csr(vctx, c.CSR_PMPADDR0, 0x1000) & CsrEffect.PMP

    def test_vendor_csr_roundtrip(self):
        ctx = VirtContext(PREMIER_P550)
        write_csr(ctx, 0x7C0, 0xAB)
        assert read_csr(ctx, 0x7C0) == 0xAB

    def test_h_csr_masked(self):
        ctx = VirtContext(PREMIER_P550)
        write_csr(ctx, c.CSR_VSEPC, 0x1003)
        assert read_csr(ctx, c.CSR_VSEPC) == 0x1000

    def test_stimecmp_requires_sstc(self, vctx):
        with pytest.raises(VirtCsrError):
            write_csr(vctx, c.CSR_STIMECMP, 100)
        ctx = VirtContext(RVA23_MACHINE)
        assert write_csr(ctx, c.CSR_STIMECMP, 100) & CsrEffect.TIMER


class TestVirtualPmp:
    def test_write_within_virtual_count(self, vctx):
        write_csr(vctx, c.CSR_PMPADDR0, 0x999)
        assert vctx.pmpaddr[0] == 0x999

    def test_write_beyond_virtual_count_ignored(self, vctx):
        write_csr(vctx, c.CSR_PMPADDR0 + 5, 0x999)
        assert vctx.pmpaddr[5] == 0
        assert read_csr(vctx, c.CSR_PMPADDR0 + 5) == 0

    def test_pmpcfg_w_without_r_rejected(self, vctx):
        write_csr(vctx, c.CSR_PMPCFG0, c.PMP_W)
        assert vctx.pmpcfg[0] == 0

    def test_locked_entry_immutable(self, vctx):
        write_csr(vctx, c.CSR_PMPCFG0, c.PMP_L | c.PMP_R)
        write_csr(vctx, c.CSR_PMPCFG0, c.PMP_R | c.PMP_W | c.PMP_X)
        assert vctx.pmpcfg[0] == c.PMP_L | c.PMP_R

    def test_probing_works_on_virtual_platform(self, vctx):
        """The OpenSBI probe loop sees exactly virtual_pmp_count entries."""
        usable = 0
        for index in range(16):
            write_csr(vctx, c.pmpaddr_csr(index), (1 << 54) - 1)
            if read_csr(vctx, c.pmpaddr_csr(index)) == 0:
                break
            usable += 1
            write_csr(vctx, c.pmpaddr_csr(index), 0)
        assert usable == 2


class TestSnapshot:
    def test_snapshot_restore(self, vctx):
        write_csr(vctx, c.CSR_MSCRATCH, 0x42)
        snap = vctx.snapshot_state()
        write_csr(vctx, c.CSR_MSCRATCH, 0)
        vctx.restore_state(snap)
        assert read_csr(vctx, c.CSR_MSCRATCH) == 0x42

    @given(u64)
    def test_mstatus_writes_never_corrupt_reserved(self, value):
        ctx = VirtContext(VISIONFIVE2)
        write_csr(ctx, c.CSR_MSTATUS, value)
        reserved = ~(
            c.MSTATUS_WRITABLE_MASK | c.MSTATUS_UXL | c.MSTATUS_SXL | c.MSTATUS_SD
        ) & ((1 << 64) - 1)
        assert ctx.mstatus & reserved == 0


class TestViews:
    def test_sie_view_follows_mideleg(self, vctx):
        write_csr(vctx, c.CSR_MIE, c.MIP_MASK)
        assert read_csr(vctx, c.CSR_SIE) == c.SIP_MASK  # mideleg hardwired

    def test_sip_write_limited(self, vctx):
        write_csr(vctx, c.CSR_SIP, c.SIP_MASK)
        assert vctx.mip == c.MIP_SSIP

    def test_mip_write_mask(self, vctx):
        write_csr(vctx, c.CSR_MIP, (1 << 64) - 1)
        assert vctx.mip == c.MIP_SSIP | c.MIP_STIP | c.MIP_SEIP
