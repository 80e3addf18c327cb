"""RAM, bus routing, CLINT, PLIC, and UART device tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hart.clint import Clint, MTIME_OFFSET
from repro.hart.cycles import TIMEBASE_FREQUENCY
from repro.hart.memory import Ram, SystemBus
from repro.hart.plic import Plic
from repro.hart.uart import Uart
from repro.spec.step import BusError


class TestRam:
    def test_read_write_roundtrip(self):
        ram = Ram(0x8000_0000, 1 << 20)
        ram.write(0x8000_0100, 8, 0xDEAD_BEEF_CAFE_F00D)
        assert ram.read(0x8000_0100, 8) == 0xDEAD_BEEF_CAFE_F00D

    def test_unwritten_reads_zero(self):
        ram = Ram(0x8000_0000, 1 << 20)
        assert ram.read(0x8008_0000, 8) == 0

    def test_little_endian(self):
        ram = Ram(0, 1 << 16)
        ram.write(0, 4, 0x0403_0201)
        assert ram.read(0, 1) == 0x01
        assert ram.read(3, 1) == 0x04

    def test_cross_page_access(self):
        ram = Ram(0, 1 << 16)
        ram.write(0x0FFC, 8, 0x1122_3344_5566_7788)
        assert ram.read(0x0FFC, 8) == 0x1122_3344_5566_7788
        assert ram.read(0x1000, 4) == 0x1122_3344

    def test_load_image(self):
        ram = Ram(0, 1 << 16)
        ram.load_image(0x100, b"\x13\x00\x00\x00")
        assert ram.read(0x100, 4) == 0x13

    @given(st.integers(min_value=0, max_value=(1 << 16) - 8),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_roundtrip_property(self, offset, value):
        ram = Ram(0, 1 << 16)
        ram.write(offset, 8, value)
        assert ram.read(offset, 8) == value


class TestSystemBus:
    def _bus(self):
        bus = SystemBus(Ram(0x8000_0000, 1 << 20))
        bus.attach(Uart(0x1000_0000))
        return bus

    def test_routes_to_ram(self):
        bus = self._bus()
        bus.write(0x8000_0000, 8, 42)
        assert bus.read(0x8000_0000, 8) == 42

    def test_routes_to_device(self):
        bus = self._bus()
        bus.write(0x1000_0000, 1, ord("A"))
        assert bus.device_at(0x1000_0000).text() == "A"

    def test_unmapped_raises(self):
        bus = self._bus()
        with pytest.raises(BusError):
            bus.read(0x4000_0000, 8)
        with pytest.raises(BusError):
            bus.write(0x4000_0000, 8, 0)

    def test_overlapping_devices_rejected(self):
        bus = self._bus()
        with pytest.raises(ValueError):
            bus.attach(Uart(0x1000_0010))

    def test_device_at_boundaries(self):
        bus = self._bus()
        assert bus.device_at(0x1000_0000) is not None
        assert bus.device_at(0x1000_00FF) is not None
        assert bus.device_at(0x1000_0100) is None


class FakeLines:
    def __init__(self):
        self.msip = {}
        self.mtip = {}
        self.eip = {}

    def set_msip(self, hart, level):
        self.msip[hart] = level

    def set_mtip(self, hart, level):
        self.mtip[hart] = level

    def set_eip(self, hart, level):
        self.eip[hart] = level


class FakeClock:
    """A clock at the timebase frequency: one cycle per mtime tick."""

    def __init__(self, cycles: int):
        self.cycles = cycles


class TestClint:
    def _clint(self, clock=None):
        lines = FakeLines()
        clint = Clint(0x200_0000, 2, clock or FakeClock(1000),
                      TIMEBASE_FREQUENCY, lines.set_msip, lines.set_mtip)
        return clint, lines

    def test_mtime_read(self):
        clint, _ = self._clint()
        assert clint.read(MTIME_OFFSET, 8) == 1000

    def test_mtime_write_ignored(self):
        clint, _ = self._clint()
        clint.write(MTIME_OFFSET, 8, 5)
        assert clint.read(MTIME_OFFSET, 8) == 1000

    def test_msip_sets_line(self):
        clint, lines = self._clint()
        clint.write(4, 4, 1)  # msip[1]
        assert lines.msip == {1: True}
        clint.write(4, 4, 0)
        assert lines.msip == {1: False}

    def test_mtimecmp_drives_mtip(self):
        clint, lines = self._clint()
        clint.write(0x4000, 8, 500)  # deadline in the past
        assert lines.mtip == {0: True}
        clint.write(0x4000, 8, 2000)
        assert lines.mtip == {0: False}

    def test_mtimecmp_word_writes(self):
        clint, _ = self._clint()
        clint.write(0x4000, 4, 0xAAAA_BBBB)
        clint.write(0x4004, 4, 0x1111_2222)
        assert clint.mtimecmp[0] == 0x1111_2222_AAAA_BBBB

    def test_tick_reevaluates(self):
        clock = FakeClock(100)
        clint, lines = self._clint(clock)
        clint.write(0x4000, 8, 200)
        assert lines.mtip == {0: False}
        clock.cycles = 250
        clint.tick()
        assert lines.mtip[0] is True

    def test_bad_offset(self):
        clint, _ = self._clint()
        with pytest.raises(BusError):
            clint.read(0x9999, 4)

    def test_addresses(self):
        clint, _ = self._clint()
        assert clint.mtime_address == 0x200_0000 + MTIME_OFFSET
        assert clint.msip_address(1) == 0x200_0004
        assert clint.mtimecmp_address(1) == 0x200_4008


class TestPlic:
    def _plic(self):
        lines = FakeLines()
        return Plic(0xC00_0000, 2, lines.set_eip), lines

    def test_claim_complete_cycle(self):
        plic, lines = self._plic()
        plic.write(4 * 5, 4, 3)  # priority[5] = 3
        plic.write(0x2000, 4, 1 << 5)  # enable source 5 for context 0
        plic.raise_interrupt(5)
        assert lines.eip[0] is True
        claimed = plic.read(0x200004, 4)
        assert claimed == 5
        assert lines.eip[0] is False
        plic.write(0x200004, 4, 5)  # complete

    def test_threshold_masks(self):
        plic, lines = self._plic()
        plic.write(4 * 3, 4, 1)  # priority 1
        plic.write(0x2000, 4, 1 << 3)
        plic.write(0x200000, 4, 2)  # threshold above priority
        plic.raise_interrupt(3)
        assert lines.eip.get(0, False) is False

    def test_disabled_source_not_delivered(self):
        plic, lines = self._plic()
        plic.write(4 * 3, 4, 7)
        plic.raise_interrupt(3)
        assert lines.eip.get(0, False) is False

    def test_highest_priority_claimed_first(self):
        plic, _ = self._plic()
        plic.write(4 * 1, 4, 1)
        plic.write(4 * 2, 4, 7)
        plic.write(0x2000, 4, 0b110)
        plic.raise_interrupt(1)
        plic.raise_interrupt(2)
        assert plic.read(0x200004, 4) == 2

    def test_bad_source(self):
        plic, _ = self._plic()
        with pytest.raises(ValueError):
            plic.raise_interrupt(0)

    def test_requires_word_access(self):
        plic, _ = self._plic()
        with pytest.raises(BusError):
            plic.read(0, 8)


class TestUart:
    def test_output_accumulates(self):
        uart = Uart(0x1000_0000)
        for byte in b"hi":
            uart.write(0, 1, byte)
        assert uart.text() == "hi"

    def test_lsr_always_ready(self):
        uart = Uart(0x1000_0000)
        assert uart.read(5, 1) & 0x20

    def test_requires_byte_access(self):
        uart = Uart(0x1000_0000)
        with pytest.raises(BusError):
            uart.write(0, 4, 0x41414141)
