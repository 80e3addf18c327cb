"""Policy module interface (§5.1).

An isolation policy is a class implementing up to seven optional hooks —
three called on ecall, trap, and world switch *from the firmware*, three
for the same events *from the OS*, and one called on interrupts — plus PMP
provisioning: policies may claim physical PMP entries with higher priority
than the virtual PMPs.

Hooks return a :class:`PolicyAction`: ``CONTINUE`` lets Miralis's default
handling proceed, ``HANDLED`` means the policy fully handled the event
(overriding Miralis), and ``DENY`` blocks it (Miralis stops the machine
with an error, the paper's §5.2 debug behaviour).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.statecopy import copy_state

if TYPE_CHECKING:
    from repro.core.vcpu import VirtContext, World
    from repro.hart.hart import Hart
    from repro.sbi.types import SbiCall
    from repro.spec.traps import Trap


class PolicyAction(enum.Enum):
    CONTINUE = "continue"
    HANDLED = "handled"
    DENY = "deny"


class PolicyModule:
    """Base class with the seven no-op hooks.

    Subclasses override only what they need, like the Rust trait's default
    methods.
    """

    name = "abstract-policy"

    # -- lifecycle ------------------------------------------------------

    def init(self, miralis, machine) -> None:
        """Called once before the first hart boots."""

    # -- state protocol (checkpoints) ----------------------------------

    #: Attributes that are wiring, not state (bound by :meth:`init`).
    WIRING = frozenset({"miralis", "machine"})

    def snapshot_state(self) -> dict:
        """Every attribute but the wiring, deep-copied."""
        return {name: copy_state(value)
                for name, value in self.__dict__.items()
                if name not in self.WIRING}

    def restore_state(self, state: dict) -> None:
        """Load a state back; call :meth:`init` first, which binds the
        wiring and re-creates any per-hart slots the state overwrites."""
        for name, value in state.items():
            setattr(self, name, copy_state(value))

    # -- PMP provisioning ---------------------------------------------

    def num_pmp_entries(self) -> int:
        """Physical PMP entries this policy claims (priority above vPMPs)."""
        return 0

    def pmp_entries(self, world: "World", hartid: int) -> list[tuple[int, int]]:
        """(pmpaddr, pmpcfg-byte) pairs to install for the given world.

        Must return at most :meth:`num_pmp_entries` pairs; missing entries
        are installed as OFF.
        """
        return []

    def allow_firmware_default_access(self) -> bool:
        """Whether vM-mode keeps M-mode-like access to unclaimed memory.

        Miralis's default emulates real M-mode semantics (all memory
        accessible).  Sandboxing policies return False so any access not
        explicitly granted traps to the monitor.
        """
        return True

    # -- hooks: events from the firmware --------------------------------

    def on_firmware_ecall(self, hart: "Hart", vctx: "VirtContext") -> PolicyAction:
        return PolicyAction.CONTINUE

    def on_firmware_trap(
        self, hart: "Hart", vctx: "VirtContext", trap: "Trap"
    ) -> PolicyAction:
        return PolicyAction.CONTINUE

    def on_switch_from_firmware(self, hart: "Hart", vctx: "VirtContext") -> PolicyAction:
        """World switch firmware -> OS (after the virtual mret)."""
        return PolicyAction.CONTINUE

    # -- hooks: events from the OS ------------------------------------------

    def on_os_ecall(
        self, hart: "Hart", vctx: "VirtContext", call: "SbiCall"
    ) -> PolicyAction:
        return PolicyAction.CONTINUE

    def on_os_trap(self, hart: "Hart", vctx: "VirtContext", trap: "Trap") -> PolicyAction:
        return PolicyAction.CONTINUE

    def on_switch_from_os(self, hart: "Hart", vctx: "VirtContext") -> PolicyAction:
        """World switch OS -> firmware (before entering vM-mode)."""
        return PolicyAction.CONTINUE

    # -- hook: interrupts ---------------------------------------------------

    def on_interrupt(self, hart: "Hart", vctx: "VirtContext", irq: int) -> PolicyAction:
        return PolicyAction.CONTINUE

    # -- introspection ---------------------------------------------------

    def describe(self) -> str:
        return self.name
