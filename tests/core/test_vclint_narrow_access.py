"""Byte-granular virtual CLINT accesses (§4.3 regression).

Firmware is free to read ``mtime``/``mtimecmp`` with sub-word loads; the
virtual CLINT must emulate them instead of faulting.
"""

import pytest

from repro.hart import clint as clint_regs
from repro.isa.instructions import Instruction
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized

U64 = (1 << 64) - 1


@pytest.fixture
def vclint_parts():
    system = build_virtualized(VISIONFIVE2)
    machine = system.machine
    machine.charge(machine.config.frequency_hz)  # 1 simulated second
    return system.miralis.vclint, machine, machine.harts[0]


def _load(vclint, hart, mnemonic, address):
    return vclint.emulate_access(hart, Instruction(mnemonic, rd=5), address)


def _sign_extend(value, size):
    sign = 1 << (size * 8 - 1)
    if value & sign:
        value |= U64 & ~((1 << (size * 8)) - 1)
    return value


class TestNarrowMtimeReads:
    def test_lb_on_each_mtime_byte(self, vclint_parts):
        vclint, machine, hart = vclint_parts
        mtime = machine.read_mtime()
        base = machine.clint.base + clint_regs.MTIME_OFFSET
        for byte in range(8):
            expected = _sign_extend((mtime >> (8 * byte)) & 0xFF, 1)
            assert _load(vclint, hart, "lb", base + byte) == expected

    def test_lh_on_mtime_halfwords(self, vclint_parts):
        vclint, machine, hart = vclint_parts
        mtime = machine.read_mtime()
        base = machine.clint.base + clint_regs.MTIME_OFFSET
        for half in range(4):
            expected = _sign_extend((mtime >> (16 * half)) & 0xFFFF, 2)
            assert _load(vclint, hart, "lh", base + 2 * half) == expected

    def test_lbu_is_zero_extended(self, vclint_parts):
        vclint, machine, hart = vclint_parts
        mtime = machine.read_mtime()
        base = machine.clint.base + clint_regs.MTIME_OFFSET
        assert _load(vclint, hart, "lbu", base) == mtime & 0xFF


class TestNarrowMtimecmpAccess:
    def test_lb_on_mtimecmp_byte(self, vclint_parts):
        vclint, machine, hart = vclint_parts
        base = machine.clint.base + clint_regs.MTIMECMP_BASE
        vclint._write(clint_regs.MTIMECMP_BASE, 8, 0x1122_3344_5566_8899)
        assert _load(vclint, hart, "lbu", base + 2) == 0x66
        assert _load(vclint, hart, "lb", base) == _sign_extend(0x99, 1)

    def test_sb_merges_into_shadow_mtimecmp(self, vclint_parts):
        vclint, machine, hart = vclint_parts
        vclint._write(clint_regs.MTIMECMP_BASE, 8, 0x1122_3344_5566_7788)
        hart.state.set_xreg(6, 0xAB)
        vclint.emulate_access(
            hart,
            Instruction("sb", rs1=0, rs2=6),
            machine.clint.base + clint_regs.MTIMECMP_BASE + 3,
        )
        assert vclint.mtimecmp[0] == 0x1122_3344_AB66_7788

    def test_unmapped_offset_still_faults(self, vclint_parts):
        vclint, machine, hart = vclint_parts
        with pytest.raises(ValueError):
            _load(vclint, hart, "lb", machine.clint.base + 0x2000)

    def test_access_straddling_a_register_faults(self, vclint_parts):
        vclint, machine, hart = vclint_parts
        with pytest.raises(ValueError):
            _load(
                vclint, hart, "lh",
                machine.clint.base + clint_regs.MTIME_OFFSET + 7,
            )


class TestPhysicalClintNarrowAccess:
    """The physical device model accepts the same narrow accesses, so the
    native and virtualized deployments stay architecturally comparable."""

    def test_narrow_mtime_read(self, vclint_parts):
        _vclint, machine, _hart = vclint_parts
        mtime = machine.read_mtime()
        got = machine.clint.read(clint_regs.MTIME_OFFSET + 2, 1)
        assert got == (mtime >> 16) & 0xFF

    def test_narrow_mtimecmp_write_merges(self, vclint_parts):
        _vclint, machine, _hart = vclint_parts
        machine.clint.write(clint_regs.MTIMECMP_BASE, 8, 0x1111_2222_3333_4444)
        machine.clint.write(clint_regs.MTIMECMP_BASE + 1, 1, 0xEE)
        assert machine.clint.mtimecmp[0] == 0x1111_2222_3333_EE44
