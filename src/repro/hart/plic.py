"""A minimal PLIC (Platform-Level Interrupt Controller).

Only the subset the simulated platforms use is modelled: per-source
priority, per-context enable, claim/complete.  Per §4.3 of the paper the
PLIC does not need emulation by the VFM — vendor firmware delegates all
external interrupts to the OS — so this device exists chiefly so the
sandbox policy has a real MMIO region whose access it can revoke, and so
OS-driven external interrupts work natively.
"""

from __future__ import annotations

from typing import Callable

from repro.spec.step import BusError

PRIORITY_BASE = 0x0000
PENDING_BASE = 0x1000
ENABLE_BASE = 0x2000
ENABLE_STRIDE = 0x80
CONTEXT_BASE = 0x200000
CONTEXT_STRIDE = 0x1000
PLIC_SIZE = 0x400000

MAX_SOURCES = 64


class Plic:
    """Platform-level interrupt controller with one context per hart."""

    def __init__(self, base: int, num_harts: int,
                 set_eip: Callable[[int, bool], None]):
        self.base = base
        self.size = PLIC_SIZE
        self.num_harts = num_harts
        self._set_eip = set_eip
        self.priority = [0] * MAX_SOURCES
        self.pending = 0
        self.enable = [0] * num_harts
        self.threshold = [0] * num_harts
        #: Per-context in-service source masks.  A source stays masked
        #: for every context while any context services it, and only the
        #: claiming context's completion releases it — a completion
        #: written by another context is ignored.
        self.claimed = [0] * num_harts
        #: Fault-injection hook: ``hook(kind, offset, size) -> bool``;
        #: True makes the access fail with a transient bus error.
        self.fault_hook = None

    # -- interrupt sources -----------------------------------------------

    def raise_interrupt(self, source: int) -> None:
        if not 1 <= source < MAX_SOURCES:
            raise ValueError(f"bad interrupt source {source}")
        self.pending |= 1 << source
        self._refresh()

    def _best_source(self, context: int) -> int:
        """Highest-priority pending+enabled source for a context (0 if none)."""
        best, best_priority = 0, 0
        in_service = 0
        for mask in self.claimed:
            in_service |= mask
        candidates = self.pending & self.enable[context] & ~in_service
        for source in range(1, MAX_SOURCES):
            if candidates >> source & 1 and self.priority[source] > best_priority:
                if self.priority[source] > self.threshold[context]:
                    best, best_priority = source, self.priority[source]
        return best

    def _refresh(self) -> None:
        for context in range(self.num_harts):
            self._set_eip(context, self._best_source(context) != 0)

    # -- device interface -------------------------------------------------

    def read(self, offset: int, size: int) -> int:
        if self.fault_hook is not None and self.fault_hook("read", offset, size):
            raise BusError(f"plic: transient bus fault reading offset {offset:#x}")
        if size != 4:
            raise BusError(f"PLIC requires 4-byte accesses, got {size}")
        if PRIORITY_BASE <= offset < PRIORITY_BASE + 4 * MAX_SOURCES:
            return self.priority[offset // 4]
        if offset == PENDING_BASE:
            return self.pending & 0xFFFFFFFF
        if ENABLE_BASE <= offset < ENABLE_BASE + ENABLE_STRIDE * self.num_harts:
            return self.enable[(offset - ENABLE_BASE) // ENABLE_STRIDE] & 0xFFFFFFFF
        context, register = self._context_register(offset)
        if register == 0:
            return self.threshold[context]
        # Claim: return and latch the best source.
        source = self._best_source(context)
        if source:
            self.claimed[context] |= 1 << source
            self.pending &= ~(1 << source)
            self._refresh()
        return source

    def write(self, offset: int, size: int, value: int) -> None:
        if self.fault_hook is not None and self.fault_hook("write", offset, size):
            raise BusError(f"plic: transient bus fault writing offset {offset:#x}")
        if size != 4:
            raise BusError(f"PLIC requires 4-byte accesses, got {size}")
        if PRIORITY_BASE <= offset < PRIORITY_BASE + 4 * MAX_SOURCES:
            self.priority[offset // 4] = value & 0x7
            self._refresh()
            return
        if ENABLE_BASE <= offset < ENABLE_BASE + ENABLE_STRIDE * self.num_harts:
            self.enable[(offset - ENABLE_BASE) // ENABLE_STRIDE] = value
            self._refresh()
            return
        context, register = self._context_register(offset)
        if register == 0:
            self.threshold[context] = value & 0x7
        else:
            # Complete — only for a source this context actually claimed.
            self.claimed[context] &= ~(1 << (value & (MAX_SOURCES - 1)))
        self._refresh()

    # -- state protocol ---------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "priority": list(self.priority),
            "pending": self.pending,
            "enable": list(self.enable),
            "threshold": list(self.threshold),
            "claimed": list(self.claimed),
        }

    def restore_state(self, state: dict) -> None:
        self.priority[:] = state["priority"]
        self.pending = state["pending"]
        self.enable[:] = state["enable"]
        self.threshold[:] = state["threshold"]
        self.claimed[:] = state["claimed"]

    def _context_register(self, offset: int) -> tuple[int, int]:
        if offset < CONTEXT_BASE:
            raise BusError(f"bad PLIC offset {offset:#x}")
        context = (offset - CONTEXT_BASE) // CONTEXT_STRIDE
        register = (offset - CONTEXT_BASE) % CONTEXT_STRIDE
        if context >= self.num_harts or register not in (0, 4):
            raise BusError(f"bad PLIC offset {offset:#x}")
        return context, register
