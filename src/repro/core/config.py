"""Miralis configuration.

Mirrors the compile-time configuration of the Rust implementation:
fast-path offload on/off, and the host-work cost parameters the simulator
charges for Miralis's own execution (Miralis is host code, like the Rust
binary, so its work is modelled in cycles rather than executed
instruction-by-instruction).  The platform's vendor CSRs come from
``PlatformConfig.vendor_csrs``.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class MiralisCosts:
    """Cycle costs of Miralis's host-side code paths.

    These model the instructions the Rust trap handler executes; together
    with the hardware costs (trap entry, CSR access, TLB flush) they are
    calibrated against Tables 4 and 5 of the paper.
    """

    #: Trap-cause routing in the top-level handler (Figure 4's dispatcher).
    dispatch: int = 50
    #: Decode + emulate one privileged instruction on the shadow state.
    emulate_instruction: int = 240
    #: Post-trap virtual interrupt check (§4.1: must run after emulation).
    interrupt_check: int = 30
    #: Save or install one block of shadow CSRs during a world switch; the
    #: per-CSR hardware cost is charged separately.
    world_switch_logic: int = 80
    #: Fast-path handlers (§3.4: each is 10-100 lines of straight code).
    fastpath_time_read: int = 40
    fastpath_set_timer: int = 60
    fastpath_ipi: int = 70
    fastpath_rfence: int = 90
    fastpath_misaligned: int = 120
    #: Virtual CLINT MMIO emulation.
    vclint_access: int = 80
    #: Re-inject a trap or interrupt into vM-mode.
    inject: int = 40


@dataclasses.dataclass(frozen=True)
class MiralisConfig:
    """Runtime configuration of the virtual firmware monitor.

    Holds only the choices production callers make differently; fixed
    limits are constants of ``core/vpmp.py`` and ``core/watchdog.py``.
    """

    #: Fast-path offloading (§3.4).  When disabled, every OS trap is
    #: re-injected into the virtualized firmware ("Miralis no-offload").
    offload_enabled: bool = True
    #: Cost model for Miralis host work.
    costs: MiralisCosts = dataclasses.field(default_factory=MiralisCosts)
    #: Stop the machine on policy violations (the paper's debug behaviour;
    #: production would log and return arbitrary values, §5.2).
    halt_on_violation: bool = True
    #: Arm the firmware watchdog: detect wedged/crashing vM-mode firmware
    #: and recover (retry, then quarantine) instead of halting.
    watchdog_enabled: bool = False
