"""CLINT — Core Local INTerruptor.

The CLINT provides the machine timer (``mtime``, one ``mtimecmp`` per hart)
and software interrupts (one ``msip`` word per hart).  Per §4.3 of the
paper, this is the only MMIO device the VFM needs to emulate; Miralis's
virtual CLINT (:mod:`repro.core.vclint`) re-implements this register layout
on top of shadow state.

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
        #: Fault-injection hook: ``hook(kind, offset, size) -> bool``;
        #: True makes the access fail with a transient bus error.
        self.fault_hook = None

    # -- device interface ----------------------------------------------

    def read(self, offset: int, size: int) -> int:
        if self.fault_hook is not None and self.fault_hook("read", offset, size):
            raise BusError(f"clint: transient bus fault reading offset {offset:#x}")
        register_base, hart, byte = self._locate(offset, size)
        if register_base == MTIME_OFFSET:
            register = self.time_source()
        elif register_base == MSIP_BASE:
            register = self.msip[hart]
        else:
            register = self.mtimecmp[hart]
        return (register >> (8 * byte)) & ((1 << (8 * size)) - 1)

    def write(self, offset: int, size: int, value: int) -> None:
        if self.fault_hook is not None and self.fault_hook("write", offset, size):
            raise BusError(f"clint: transient bus fault writing offset {offset:#x}")
        register_base, hart, byte = self._locate(offset, size)
        if register_base == MTIME_OFFSET:
            # mtime is writable on real CLINTs; the simulated clock is
            # monotonic and owned by the machine, so writes are ignored.
            return
        if register_base == MSIP_BASE:
            self.msip[hart] = value & 1
            self._set_msip(hart, bool(value & 1))
            return
        mask = ((1 << (8 * size)) - 1) << (8 * byte)
        self.mtimecmp[hart] = (
            (self.mtimecmp[hart] & ~mask) | ((value << (8 * byte)) & mask)
        )
        self._update_mtip(hart)

    # -- timer logic ------------------------------------------------------

    def _locate(self, offset: int, size: int) -> tuple[int, int, int]:
        """Map an access onto one register: (register base, hart, byte).

        ``mtime``/``mtimecmp`` accept byte-granular accesses contained in
        one register; ``msip`` is 32-bit only, as on SiFive hardware.
        """
        if MTIME_OFFSET <= offset < MTIME_OFFSET + 8:
            byte = offset - MTIME_OFFSET
            if byte + size <= 8:
                return MTIME_OFFSET, 0, byte
        elif (
            MSIP_BASE <= offset < MSIP_BASE + 4 * self.num_harts
            and size == 4 and offset % 4 == 0
        ):
            return MSIP_BASE, (offset - MSIP_BASE) // 4, 0
        elif MTIMECMP_BASE <= offset < MTIMECMP_BASE + 8 * self.num_harts:
            byte = (offset - MTIMECMP_BASE) % 8
            if byte + size <= 8:
                return MTIMECMP_BASE, (offset - MTIMECMP_BASE) // 8, byte
        raise BusError(f"bad CLINT access: {size}B at offset {offset:#x}")

    def _update_mtip(self, hart: int, now: int | None = None) -> None:
        level = (self.time_source() if now is None else now) >= self.mtimecmp[hart]
        if level != self._mtip_level[hart]:
            self._mtip_level[hart] = level
            self._set_mtip(hart, level)

    def tick(self) -> None:
        """Re-evaluate all timer comparators (called when time advances).

        One comparison pass; ``set_mtip`` runs only for a level change.
        """
        now = self.time_source()
        if [now >= deadline for deadline in self.mtimecmp] != self._mtip_level:
            for hart in range(self.num_harts):
                self._update_mtip(hart, now)

    def next_timer_deadline(self) -> int:
        """Earliest mtimecmp across harts (used to fast-forward idle time)."""
        return min(self.mtimecmp)

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

    # -- convenience used by firmware and the VFM fast path ---------------

    def mtimecmp_address(self, hart: int) -> int:
        return self.base + MTIMECMP_BASE + 8 * hart

    def msip_address(self, hart: int) -> int:
        return self.base + MSIP_BASE + 4 * hart

    @property
    def mtime_address(self) -> int:
        return self.base + MTIME_OFFSET
