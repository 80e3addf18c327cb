"""The CLINT's quiet window, kept in machine cycles, is exact.

``Clint`` skips its comparison pass while ``machine.cycles`` lies inside
a window derived from the comparators and the recorded levels, and
``Hart.check_interrupts`` tests the same window in place.  ``mtime`` is
``int(cycles * TIMEBASE_FREQUENCY / frequency)`` in floating point, so
the window is the ``mtime`` window ``[lo, hi)`` mapped to cycles and
shrunk by one cycle at each end.  These tests move the clock to cycle
counts on and next to every comparator's threshold and to the window's
own edges, forwards and backwards, and check after each step that every
hart's MTIP line equals ``mtime >= mtimecmp``: a skipped tick must never
hide a level change.

Without the one-cycle shrink, or with the edges truncated to whole
cycles as ``mtime_to_cycles`` does, some of these steps land inside the
window on the wrong side of a threshold, and the line is stale.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.hart.clint import MTIMECMP_BASE
from repro.hart.cycles import TIMEBASE_FREQUENCY
from repro.hart.machine import Machine
from repro.isa import constants as c
from repro.spec.platform import (
    PREMIER_P550,
    QEMU_VIRT,
    RVA23_MACHINE,
    VISIONFIVE2,
)

U64 = (1 << 64) - 1

#: Every platform's frequency (1.0, 1.5, 1.8 and 2.0 GHz), and one that
#: is not a whole number of cycles per timebase tick.
PLATFORMS = [
    QEMU_VIRT,
    VISIONFIVE2,
    PREMIER_P550,
    RVA23_MACHINE,
    dataclasses.replace(QEMU_VIRT, name="odd-frequency",
                        frequency_hz=1_234_567_891),
]
PLATFORM_IDS = [f"{p.frequency_hz / 1e9:.3f}GHz" for p in PLATFORMS]

#: mtime values the comparators sit around, up to one day at 4 MHz.
BASES = [1, 7, 4_093, 1_000_003, 123_456_789, 345_600_000_001]

#: Comparator offsets from the base, per hart: raised and lowered ones
#: on and next to the base, so the window's edges fall on each of them.
PATTERNS = [(-1, 0, 1, 2), (0, 1, -1, U64), (1, -1, 2, 0), (2, U64, 0, -1)]


def _machine(platform, num_harts: int) -> Machine:
    return Machine(dataclasses.replace(platform, num_harts=num_harts))


def _to_cycles(machine: Machine, ticks: int) -> float:
    return ticks * machine.config.frequency_hz / TIMEBASE_FREQUENCY


def _probes(machine: Machine) -> list[float]:
    """Cycle counts on and next to each comparator's threshold and each
    edge of the current window, in ascending order."""
    clint = machine.clint
    points = []
    for deadline in clint.mtimecmp:
        if deadline != U64:
            exact = _to_cycles(machine, deadline)
            points += [exact, float(int(exact)), float(int(exact) + 1),
                       exact - 1, exact + 1, exact - 0.5, exact + 0.5]
    for edge in (clint._cycles_lo, clint._cycles_hi):
        if math.isfinite(edge):
            points += [edge, edge - 1, edge + 1, float(int(edge)),
                       float(int(edge) + 1)]
    around = [math.nextafter(p, -math.inf) for p in points]
    around += [math.nextafter(p, math.inf) for p in points]
    return sorted(p for p in set(points + around) if p >= 0)


def _assert_lines_exact(machine: Machine, where: str) -> None:
    now = machine.read_mtime()
    for hart in machine.harts:
        line = bool(hart.state.csr.mip_hw & c.MIP_MTIP)
        expected = now >= machine.clint.mtimecmp[hart.hartid]
        assert line == expected, (
            f"{where}: hart {hart.hartid} MTIP {line} at mtime {now} "
            f"(cycles {machine.cycles!r}), mtimecmp "
            f"{machine.clint.mtimecmp[hart.hartid]}")


def _step(machine: Machine, cycles: float, where: str) -> None:
    """Move the clock and run the in-place check, then the device tick."""
    machine.cycles = cycles
    assert not machine.harts[0].check_interrupts()  # mie is clear
    _assert_lines_exact(machine, f"{where}, check_interrupts")
    machine.clint.tick()
    _assert_lines_exact(machine, f"{where}, tick")


def _arm(machine: Machine, base: int, pattern: tuple) -> None:
    machine.cycles = _to_cycles(machine, base)
    for hart in range(machine.config.num_harts):
        offset = pattern[hart % len(pattern)]
        deadline = U64 if offset == U64 else base + offset
        machine.clint.write(MTIMECMP_BASE + 8 * hart, 8, deadline)


@pytest.mark.parametrize("num_harts", [1, 2, 4])
@pytest.mark.parametrize("platform", PLATFORMS, ids=PLATFORM_IDS)
def test_skipped_tick_never_hides_a_level_change(platform, num_harts):
    machine = _machine(platform, num_harts)
    for base in BASES:
        for pattern in PATTERNS:
            _arm(machine, base, pattern)
            armed = machine.cycles
            probes = _probes(machine)
            # Up through every probe and back down, so each edge is
            # approached from inside the window on either side ...
            for probe in probes + probes[::-1]:
                _step(machine, probe, f"base {base}, walk to {probe!r}")
            # ... and a jump to each probe from the window armed at base.
            for probe in probes:
                _step(machine, armed, f"base {base}, back to {armed!r}")
                _step(machine, probe, f"base {base}, jump to {probe!r}")


@pytest.mark.parametrize("num_harts", [1, 2, 4])
@pytest.mark.parametrize("platform", PLATFORMS, ids=PLATFORM_IDS)
def test_restore_moves_the_clock_back_across_the_window(platform, num_harts):
    machine = _machine(platform, num_harts)
    last = machine.harts[-1]
    for base in BASES:
        machine.cycles = _to_cycles(machine, base)
        machine.clint.write(MTIMECMP_BASE + 8 * last.hartid, 8, base + 1)
        before = (machine.snapshot_state(), machine.clint.snapshot_state(),
                  last.snapshot_state())
        probes = _probes(machine)
        for probe in probes:
            _step(machine, probe, f"base {base}, forward")
            # A checkpoint restore: the clock, the levels and the lines
            # rewind together.
            machine.restore_state(before[0])
            machine.clint.restore_state(before[1])
            last.restore_state(before[2])
            _assert_lines_exact(machine, f"base {base}, restored")
            _step(machine, machine.cycles, f"base {base}, after restore")
        for probe in reversed(probes):
            # The clock alone moves back: the levels are stale.
            _step(machine, probe, f"base {base}, backward")
