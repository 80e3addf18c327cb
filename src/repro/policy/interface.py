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
from typing import TYPE_CHECKING

from repro.isa import constants as c
from repro.isa.bits import napot_encode
from repro.statecopy import copy_state

if TYPE_CHECKING:
    from repro.core.vcpu import VirtContext, World
    from repro.hart.hart import Hart
    from repro.sbi.types import SbiCall
    from repro.spec.traps import Trap


#: PMP config bytes the policies install: a NAPOT entry granting full
#: access, one granting none, and the NAPOT pmpaddr covering all memory.
PMP_ALLOW_RWX = (int(c.PmpAddressMode.NAPOT) << c.PMP_A_SHIFT
                 | c.PMP_R | c.PMP_W | c.PMP_X)
PMP_DENY = int(c.PmpAddressMode.NAPOT) << c.PMP_A_SHIFT
ALL_ADDRESSES = (1 << 54) - 1


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


class PartitionPolicy(PolicyModule):
    """A policy that runs isolated guests (Keystone enclaves, ACE TVMs)
    on the OS's harts.  Two PMP entries fence the running guest in, and
    every live guest off while anything else runs (their priority above
    the virtual PMPs blocks the firmware too).  Subclasses define
    ``_running_region()`` (the running guest's region, or None) and
    ``_live_regions()`` (those of the guests not destroyed)."""

    def num_pmp_entries(self) -> int:
        return 2

    def pmp_entries(self, world: "World", hartid: int) -> list[tuple[int, int]]:
        region = self._running_region()
        if region is not None:
            return [(napot_encode(region.base, region.size), PMP_ALLOW_RWX),
                    (ALL_ADDRESSES, PMP_DENY)]
        return [(napot_encode(region.base, region.size), PMP_DENY)
                for region in self._live_regions()][:2]

    def _reinstall_pmp(self, hart) -> None:
        hartid = hart.hartid
        writes = self.miralis.vpmp.install(
            hart, self.miralis.vctx[hartid], self.miralis.world[hartid], self)
        hart.charge(writes * hart.cycle_model.csr_access)

    def _enter_guest(self, hart, regs: list, pc: int, mode) -> None:
        """Switch to the guest just made the running one; nothing is
        delegated while it runs, so every trap reaches the monitor."""
        state = hart.state
        self._saved_medeleg, self._saved_mideleg = (state.csr.medeleg,
                                                    state.csr.mideleg)
        state.csr.medeleg = state.csr.mideleg = 0
        self._reinstall_pmp(hart)
        state.load_xregs(regs)
        state.pc = pc
        state.mode = mode

    def _exit_guest(self, hart, host_regs: list, host_pc: int,
                    return_values: tuple) -> None:
        """Switch the hart back to the host, once no guest is running."""
        state = hart.state
        state.csr.medeleg = self._saved_medeleg
        state.csr.mideleg = self._saved_mideleg
        self._reinstall_pmp(hart)
        state.load_xregs(host_regs)
        for index, value in enumerate(return_values):
            state.set_xreg(10 + index, value & ((1 << 64) - 1))
        state.pc = host_pc
        state.mode = c.S_MODE
