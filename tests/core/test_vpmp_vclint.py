"""PMP virtualization (Figure 5) and virtual CLINT unit tests."""

import pytest

from repro.core.interrupts import refresh_virtual_mip
from repro.core.vcpu import VirtContext, World
from repro.core.vclint import VirtualClint
from repro.core.vpmp import PmpVirtualizer, napot_power_of_two_cover
from repro.hart.machine import Machine
from repro.hart.program import Region
from repro.isa import constants as c
from repro.isa.bits import napot_encode, napot_range
from repro.isa.instructions import Instruction
from repro.policy.default import DefaultPolicy
from repro.spec.pmp import pmp_check
from repro.spec.platform import VISIONFIVE2

MIRALIS_REGION = Region("miralis", 0x8020_0000, 0x10_0000)


@pytest.fixture
def machine():
    return Machine(VISIONFIVE2)


@pytest.fixture
def vpmp(machine):
    return PmpVirtualizer(machine, MIRALIS_REGION, 0)


@pytest.fixture
def vctx(vpmp):
    ctx = VirtContext(VISIONFIVE2)
    ctx.virtual_pmp_count = vpmp.virtual_count
    return ctx


class TestLayout:
    def test_virtual_count(self, vpmp):
        # 8 physical - 2 guards - 0 policy - 1 zero - 1 all-memory = 4
        assert vpmp.virtual_count == 4

    def test_policy_entries_reduce_virtual_count(self, machine):
        vpmp = PmpVirtualizer(machine, MIRALIS_REGION, 2)
        assert vpmp.virtual_count == 2

    def test_too_many_reservations_rejected(self, machine):
        with pytest.raises(ValueError):
            PmpVirtualizer(machine, MIRALIS_REGION, 5)

    def test_napot_cover_rounds_up(self):
        pmpaddr = napot_power_of_two_cover(0x200_0000, 0xC000)
        base, size = napot_range(pmpaddr)
        assert base == 0x200_0000 and size == 0x10000


class TestGuards:
    def test_miralis_memory_blocked_in_both_worlds(self, vpmp, vctx, machine):
        hart = machine.harts[0]
        for world in (World.FIRMWARE, World.OS):
            vpmp.install(hart, vctx, world, DefaultPolicy())
            mode = c.U_MODE if world == World.FIRMWARE else c.S_MODE
            result = pmp_check(
                hart.state.csr.pmpcfg, hart.state.csr.pmpaddr,
                MIRALIS_REGION.base, 8, c.AccessType.READ, mode, pmp_count=8,
            )
            assert not result.allowed

    def test_clint_blocked_in_firmware_world(self, vpmp, vctx, machine):
        hart = machine.harts[0]
        vpmp.install(hart, vctx, World.FIRMWARE, DefaultPolicy())
        result = pmp_check(
            hart.state.csr.pmpcfg, hart.state.csr.pmpaddr,
            machine.clint.mtime_address, 8, c.AccessType.READ, c.U_MODE,
            pmp_count=8,
        )
        assert not result.allowed

    def test_protects_classification(self, vpmp, machine):
        assert vpmp.protects(MIRALIS_REGION.base) == "miralis"
        assert vpmp.protects(machine.clint.mtime_address) == "clint"
        assert vpmp.protects(0x8400_0000) is None
        # Straddling access counts as protected.
        assert vpmp.protects(MIRALIS_REGION.base - 4, size=8) == "miralis"


class TestWorldSemantics:
    def test_firmware_world_default_access(self, vpmp, vctx, machine):
        hart = machine.harts[0]
        vpmp.install(hart, vctx, World.FIRMWARE, DefaultPolicy())
        result = pmp_check(
            hart.state.csr.pmpcfg, hart.state.csr.pmpaddr,
            0x8400_0000, 8, c.AccessType.WRITE, c.U_MODE, pmp_count=8,
        )
        assert result.allowed  # vM-mode sees M-like full access

    def test_unlocked_virtual_entry_rwx_in_firmware_world(self, vpmp, vctx, machine):
        hart = machine.harts[0]
        # Firmware sets a no-permission entry over its own region: in real
        # M-mode an unlocked entry would not constrain it.
        vctx.pmpcfg[0] = int(c.PmpAddressMode.NAPOT) << c.PMP_A_SHIFT
        vctx.pmpaddr[0] = napot_encode(0x8000_0000, 0x10_0000)
        vpmp.install(hart, vctx, World.FIRMWARE, DefaultPolicy())
        result = pmp_check(
            hart.state.csr.pmpcfg, hart.state.csr.pmpaddr,
            0x8000_0000, 8, c.AccessType.READ, c.U_MODE, pmp_count=8,
        )
        assert result.allowed

    def test_virtual_entry_applies_in_os_world(self, vpmp, vctx, machine):
        hart = machine.harts[0]
        vctx.pmpcfg[0] = int(c.PmpAddressMode.NAPOT) << c.PMP_A_SHIFT
        vctx.pmpaddr[0] = napot_encode(0x8000_0000, 0x10_0000)
        # All-memory grant behind it, as real firmware programs.
        vctx.pmpcfg[1] = (
            int(c.PmpAddressMode.NAPOT) << c.PMP_A_SHIFT
        ) | c.PMP_R | c.PMP_W | c.PMP_X
        vctx.pmpaddr[1] = (1 << 54) - 1
        vpmp.install(hart, vctx, World.OS, DefaultPolicy())
        blocked = pmp_check(
            hart.state.csr.pmpcfg, hart.state.csr.pmpaddr,
            0x8000_0000, 8, c.AccessType.READ, c.S_MODE, pmp_count=8,
        )
        allowed = pmp_check(
            hart.state.csr.pmpcfg, hart.state.csr.pmpaddr,
            0x8400_0000, 8, c.AccessType.READ, c.S_MODE, pmp_count=8,
        )
        assert not blocked.allowed
        assert allowed.allowed

    def test_locked_bit_stripped_physically(self, vpmp, vctx, machine):
        hart = machine.harts[0]
        vctx.pmpcfg[0] = c.PMP_L | c.PMP_R
        vpmp.install(hart, vctx, World.OS, DefaultPolicy())
        assert all(not cfg & c.PMP_L for cfg in hart.state.csr.pmpcfg)

    def test_tor_zero_anchor(self, vpmp, vctx, machine):
        """Virtual PMP 0 in TOR mode starts at address 0 (§4.2)."""
        hart = machine.harts[0]
        vctx.pmpcfg[0] = (int(c.PmpAddressMode.TOR) << c.PMP_A_SHIFT) | c.PMP_R
        vctx.pmpaddr[0] = 0x1000 >> 2
        # Force some junk into the entry preceding the virtual block.
        vpmp.install(hart, vctx, World.OS, DefaultPolicy())
        anchor = vpmp.zero_entry_index
        assert hart.state.csr.pmpaddr[anchor] == 0
        result = pmp_check(
            hart.state.csr.pmpcfg, hart.state.csr.pmpaddr,
            0x0, 8, c.AccessType.READ, c.S_MODE, pmp_count=8,
        )
        assert result.allowed

    def test_install_returns_write_count(self, vpmp, vctx, machine):
        hart = machine.harts[0]
        writes_first = vpmp.install(hart, vctx, World.FIRMWARE, DefaultPolicy())
        writes_second = vpmp.install(hart, vctx, World.FIRMWARE, DefaultPolicy())
        assert writes_first > 0
        assert writes_second == 0  # nothing changed


class TestVirtualClint:
    @pytest.fixture
    def vclint(self, machine):
        return VirtualClint(machine)

    def test_mtime_read(self, vclint, machine):
        machine.charge(1_500_000)  # 1 ms at 1.5 GHz -> 4000 mtime ticks
        hart = machine.harts[0]
        instr = Instruction("ld", rd=5, rs1=1)
        value = vclint.emulate_access(hart, instr, machine.clint.mtime_address)
        assert value == machine.read_mtime() == 4000
        assert hart.state.get_xreg(5) == 4000

    def test_mtimecmp_write_programs_physical(self, vclint, machine):
        hart = machine.harts[0]
        hart.state.set_xreg(6, 999)
        instr = Instruction("sd", rs1=1, rs2=6)
        vclint.emulate_access(hart, instr, machine.clint.mtimecmp_address(0))
        assert vclint.mtimecmp[0] == 999
        assert machine.clint.mtimecmp[0] == 999

    def test_mtimecmp_readback(self, vclint, machine):
        hart = machine.harts[0]
        vclint.mtimecmp[0] = 0x1122_3344_5566_7788
        instr = Instruction("ld", rd=5, rs1=1)
        value = vclint.emulate_access(hart, instr, machine.clint.mtimecmp_address(0))
        assert value == 0x1122_3344_5566_7788

    def test_monitor_deadline_multiplexing(self, vclint, machine):
        vclint.mtimecmp[0] = 5000  # firmware deadline
        vclint.set_monitor_deadline(0, 3000)  # OS deadline via fast path
        assert machine.clint.mtimecmp[0] == 3000
        vclint.clear_monitor_deadline(0)
        assert machine.clint.mtimecmp[0] == 5000

    def test_msip_passthrough(self, vclint, machine):
        hart = machine.harts[0]
        hart.state.set_xreg(6, 1)
        instr = Instruction("sw", rs1=1, rs2=6)
        vclint.emulate_access(hart, instr, machine.clint.msip_address(1))
        assert machine.clint.msip[1] == 1

    def test_mtime_write_ignored(self, vclint, machine):
        hart = machine.harts[0]
        hart.state.set_xreg(6, 12345)
        instr = Instruction("sd", rs1=1, rs2=6)
        vclint.emulate_access(hart, instr, machine.clint.mtime_address)
        assert machine.read_mtime() == 0

    def test_bad_offset_raises(self, vclint, machine):
        hart = machine.harts[0]
        instr = Instruction("ld", rd=5, rs1=1)
        with pytest.raises(ValueError):
            vclint.emulate_access(hart, instr, machine.clint.base + 0x9000)

    def test_word_sized_mtimecmp_access(self, vclint, machine):
        hart = machine.harts[0]
        hart.state.set_xreg(6, 0xAAAA_BBBB)
        vclint.emulate_access(
            hart, Instruction("sw", rs1=1, rs2=6), machine.clint.mtimecmp_address(0)
        )
        hart.state.set_xreg(6, 0x1111_2222)
        vclint.emulate_access(
            hart, Instruction("sw", rs1=1, rs2=6),
            machine.clint.mtimecmp_address(0) + 4,
        )
        assert vclint.mtimecmp[0] == 0x1111_2222_AAAA_BBBB

    def test_virtual_mtip(self, vclint, vctx):
        """The firmware's MTIP follows its own comparator, as the monitor
        computes it."""
        vclint.mtimecmp[0] = 100
        refresh_virtual_mip(vctx, 50, vclint.mtimecmp[0], False)
        assert not vctx.mip & c.MIP_MTIP
        refresh_virtual_mip(vctx, 100, vclint.mtimecmp[0], False)
        assert vctx.mip & c.MIP_MTIP
