"""CLINT — Core Local INTerruptor.

The CLINT provides the machine timer (``mtime``, one ``mtimecmp`` per hart)
and software interrupts (one ``msip`` word per hart).  Per §4.3 of the
paper, this is the only MMIO device the VFM needs to emulate; Miralis's
virtual CLINT (:mod:`repro.core.vclint`) serves the same register map on
top of shadow state, through this module's :func:`locate` and
:func:`merge`.

Register map (standard SiFive layout):

====================  ==========================================
offset                register
====================  ==========================================
0x0000 + 4*hart       msip[hart]      (bit 0 = software interrupt)
0x4000 + 8*hart       mtimecmp[hart]
0xBFF8                mtime
====================  ==========================================
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.hart.cycles import TIMEBASE_FREQUENCY, cycles_to_mtime
from repro.spec.step import BusError

MSIP_BASE = 0x0000
MTIMECMP_BASE = 0x4000
MTIME_OFFSET = 0xBFF8
CLINT_SIZE = 0xC000

_INF = float("inf")


def locate(offset: int, size: int, num_harts: int,
           error: type[Exception] = BusError) -> tuple[str, int, int]:
    """Map an access onto one register: ("msip"/"mtimecmp"/"mtime", hart, byte).

    ``mtime``/``mtimecmp`` accept byte-granular accesses contained in one
    register; ``msip`` is 32-bit only, as on SiFive hardware.  Anything
    else raises ``error`` (the vCLINT's is ``ValueError``).
    """
    if MTIME_OFFSET <= offset < MTIME_OFFSET + 8:
        byte = offset - MTIME_OFFSET
        if byte + size <= 8:
            return "mtime", 0, byte
    elif (
        MSIP_BASE <= offset < MSIP_BASE + 4 * num_harts
        and size == 4 and offset % 4 == 0
    ):
        return "msip", (offset - MSIP_BASE) // 4, 0
    elif MTIMECMP_BASE <= offset < MTIMECMP_BASE + 8 * num_harts:
        byte = (offset - MTIMECMP_BASE) % 8
        if byte + size <= 8:
            return "mtimecmp", (offset - MTIMECMP_BASE) // 8, byte
    raise error(f"bad CLINT access: {size}B at offset {offset:#x}")


def merge(register: int, value: int, size: int, byte: int) -> int:
    """``register`` after a ``size``-byte store of ``value`` at ``byte``."""
    mask = ((1 << (8 * size)) - 1) << (8 * byte)
    return (register & ~mask) | ((value << (8 * byte)) & mask)


class Clock(Protocol):
    """What the CLINT reads time from: the machine's elapsed cycles."""

    cycles: float


class Clint:
    """The physical CLINT device.

    ``mtime`` is derived from ``clock.cycles`` at ``frequency_hz`` by
    ``cycles_to_mtime``, as the machine derives it; interrupt level
    changes are pushed through the ``set_msip``/``set_mtip`` callbacks
    so CSR ``mip`` bits track device state, as wired lines do on
    hardware.
    """

    def __init__(
        self,
        base: int,
        num_harts: int,
        clock: Clock,
        frequency_hz: int,
        set_msip: Callable[[int, bool], None],
        set_mtip: Callable[[int, bool], None],
    ):
        self.base = base
        self.size = CLINT_SIZE
        self.num_harts = num_harts
        self.clock = clock
        self._frequency_hz = frequency_hz
        self._set_msip = set_msip
        self._set_mtip = set_mtip
        self.msip = [0] * num_harts
        self.mtimecmp = [(1 << 64) - 1] * num_harts
        # Last level pushed through ``set_mtip`` per hart.  mtip is a level
        # (an idempotent CSR bit), so suppressing same-level callbacks is
        # exact, not an approximation — unlike msip, whose rising edge also
        # triggers remote-hart servicing and must never be filtered.
        self._mtip_level: list[bool | None] = [None] * num_harts
        # The quiet window, in clock cycles: while
        # ``_cycles_lo <= clock.cycles < _cycles_hi`` and the comparators
        # still equal ``_window_cmp``, no hart's level can differ from
        # ``_mtip_level``, so ``tick`` (and ``Hart.check_interrupts``,
        # which tests it in place) is one range test.  Derived from the
        # levels and comparators by ``_rewindow``; empty until every
        # level is known.
        self._cycles_lo: float = _INF
        self._cycles_hi: float = -_INF
        self._window_cmp: list[int] = []
        #: Fault-injection hook: ``hook(kind, offset, size) -> bool``;
        #: True makes the access fail with a transient bus error.
        self.fault_hook = None

    # -- device interface ----------------------------------------------

    def read(self, offset: int, size: int) -> int:
        if self.fault_hook is not None and self.fault_hook("read", offset, size):
            raise BusError(f"clint: transient bus fault reading offset {offset:#x}")
        register, hart, byte = locate(offset, size, self.num_harts)
        if register == "mtime":
            value = self.mtime()
        elif register == "msip":
            value = self.msip[hart]
        else:
            value = self.mtimecmp[hart]
        return (value >> (8 * byte)) & ((1 << (8 * size)) - 1)

    def write(self, offset: int, size: int, value: int) -> None:
        if self.fault_hook is not None and self.fault_hook("write", offset, size):
            raise BusError(f"clint: transient bus fault writing offset {offset:#x}")
        register, hart, byte = locate(offset, size, self.num_harts)
        if register == "mtime":
            # mtime is writable on real CLINTs; the simulated clock is
            # monotonic and owned by the machine, so writes are ignored.
            return
        if register == "msip":
            self.msip[hart] = value & 1
            self._set_msip(hart, bool(value & 1))
            return
        self.mtimecmp[hart] = merge(self.mtimecmp[hart], value, size, byte)
        self._update_mtip(hart)
        self._rewindow()

    # -- timer logic ------------------------------------------------------

    def mtime(self) -> int:
        return cycles_to_mtime(self.clock.cycles, self._frequency_hz)

    def _update_mtip(self, hart: int, now: int | None = None) -> None:
        level = (self.mtime() if now is None else now) >= self.mtimecmp[hart]
        if level != self._mtip_level[hart]:
            self._mtip_level[hart] = level
            self._set_mtip(hart, level)

    def tick(self) -> None:
        """Re-evaluate all timer comparators (called when time advances).

        Inside the quiet window (see ``_rewindow``) nothing can change
        and this is one range test on the cycle count; outside it, one
        comparison pass on ``mtime``, and ``set_mtip`` runs only for a
        level change.
        """
        cycles = self.clock.cycles
        if (self._cycles_lo <= cycles < self._cycles_hi
                and self.mtimecmp == self._window_cmp):
            return
        now = cycles_to_mtime(cycles, self._frequency_hz)
        if [now >= deadline for deadline in self.mtimecmp] != self._mtip_level:
            for hart in range(self.num_harts):
                self._update_mtip(hart, now)
        self._rewindow()

    def _rewindow(self) -> None:
        """Recompute the window in which no comparator changes level.

        Hart ``h`` keeps its level exactly while ``mtime >= mtimecmp[h]``
        equals ``_mtip_level[h]``: in ``mtime`` the window is ``[lo, hi)``
        with ``lo`` the latest raised comparator and ``hi`` the earliest
        lowered one.  It is kept in cycles, shrunk by one cycle at each
        end: ``mtime`` is ``int(cycles * TIMEBASE_FREQUENCY / frequency)``
        in floating point, and a cycle inside ``[lo * frequency /
        TIMEBASE_FREQUENCY + 1, hi * frequency / TIMEBASE_FREQUENCY - 1)``
        lies at least ``TIMEBASE_FREQUENCY / frequency`` ticks (0.002 at
        2 GHz) inside ``[lo, hi)``, far more than the two roundings can
        move it while ``mtime`` stays below about 2**40 (three days at
        the 4 MHz timebase).  Outside the window ``tick`` compares as
        before, so the result is exact; the test is two-sided, so a
        restore that moves the clock back leaves it too.

        The window is derived from the recorded levels, not from the
        time, so a stale level leaves the clock outside (or the window
        empty) and the next ``tick`` re-evaluates.  Recomputed after
        every level change, ``write`` and ``restore_state``; ``tick``
        also compares the comparators against the copy taken here, which
        catches a direct (in-place) mutation of ``mtimecmp``.
        """
        lo, hi = -_INF, _INF
        for deadline, level in zip(self.mtimecmp, self._mtip_level):
            if level is None:
                lo, hi = _INF, -_INF  # a level never evaluated: no window
                break
            if level:
                if deadline > lo:
                    lo = deadline
            elif deadline < hi:
                hi = deadline
        frequency = self._frequency_hz
        self._cycles_lo = lo * frequency / TIMEBASE_FREQUENCY + 1
        self._cycles_hi = hi * frequency / TIMEBASE_FREQUENCY - 1
        self._window_cmp = list(self.mtimecmp)

    # -- state protocol ---------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "msip": list(self.msip),
            "mtimecmp": list(self.mtimecmp),
            "mtip_level": list(self._mtip_level),
        }

    def restore_state(self, state: dict) -> None:
        # Registers only: the interrupt lines are CSR state the harts
        # restore themselves, so no ``set_*`` callback fires.
        self.msip[:] = state["msip"]
        self.mtimecmp[:] = state["mtimecmp"]
        self._mtip_level[:] = state["mtip_level"]
        self._rewindow()

    # -- convenience used by firmware and the VFM fast path ---------------

    def mtimecmp_address(self, hart: int) -> int:
        return self.base + MTIMECMP_BASE + 8 * hart

    def msip_address(self, hart: int) -> int:
        return self.base + MSIP_BASE + 4 * hart

    @property
    def mtime_address(self) -> int:
        return self.base + MTIME_OFFSET
