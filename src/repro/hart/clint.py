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

from typing import Callable

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


class Clint:
    """The physical CLINT device.

    ``time_source`` supplies the current mtime value (owned by the
    machine's clock); interrupt level changes are pushed through the
    ``set_msip``/``set_mtip`` callbacks so CSR ``mip`` bits track device
    state, as wired lines do on hardware.
    """

    def __init__(
        self,
        base: int,
        num_harts: int,
        time_source: Callable[[], int],
        set_msip: Callable[[int, bool], None],
        set_mtip: Callable[[int, bool], None],
    ):
        self.base = base
        self.size = CLINT_SIZE
        self.num_harts = num_harts
        self.time_source = time_source
        self._set_msip = set_msip
        self._set_mtip = set_mtip
        self.msip = [0] * num_harts
        self.mtimecmp = [(1 << 64) - 1] * num_harts
        # Last level pushed through ``set_mtip`` per hart.  mtip is a level
        # (an idempotent CSR bit), so suppressing same-level callbacks is
        # exact, not an approximation — unlike msip, whose rising edge also
        # triggers remote-hart servicing and must never be filtered.
        self._mtip_level: list[bool | None] = [None] * num_harts
        # The deadline window: while ``lo <= mtime < hi`` and the
        # comparators still equal ``_window_cmp``, no hart's level can
        # differ from ``_mtip_level``, so ``tick`` is one range test.
        # Derived from the levels and comparators by ``_rewindow``; empty
        # until every level is known.
        self._window_lo: float = _INF
        self._window_hi: float = -_INF
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
            value = self.time_source()
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

    def _update_mtip(self, hart: int, now: int | None = None) -> None:
        level = (self.time_source() if now is None else now) >= self.mtimecmp[hart]
        if level != self._mtip_level[hart]:
            self._mtip_level[hart] = level
            self._set_mtip(hart, level)

    def tick(self) -> None:
        """Re-evaluate all timer comparators (called when time advances).

        Inside the deadline window (see ``_rewindow``) nothing can change
        and this is one range test; outside it, one comparison pass, and
        ``set_mtip`` runs only for a level change.
        """
        now = self.time_source()
        if (self._window_lo <= now < self._window_hi
                and self.mtimecmp == self._window_cmp):
            return
        if [now >= deadline for deadline in self.mtimecmp] != self._mtip_level:
            for hart in range(self.num_harts):
                self._update_mtip(hart, now)
        self._rewindow()

    def _rewindow(self) -> None:
        """Recompute the window in which no comparator changes level.

        Hart ``h`` keeps its level exactly while ``mtime >= mtimecmp[h]``
        equals ``_mtip_level[h]``: the window is ``[lo, hi)`` with ``lo``
        the latest raised comparator and ``hi`` the earliest lowered one.
        It is derived from the recorded levels, not from the time, so a
        stale level leaves ``mtime`` outside (or the window empty) and the
        next ``tick`` re-evaluates.  Recomputed after every level change,
        ``write`` and ``restore_state``; ``tick`` also compares the
        comparators against the copy taken here, which catches a direct
        (in-place) mutation of ``mtimecmp``.
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
        self._window_lo = lo
        self._window_hi = hi
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
