"""Executable specification of the RV64 privileged architecture.

This package plays the role of the official RISC-V Sail model in the paper:
an authoritative ``hw : C x S x I -> S`` transition function that both
drives the hart simulator (configuration fixed) and serves as the oracle
for the faithful-emulation and faithful-execution criteria of §6.
"""

from repro.spec.csrs import CsrFile, known_csr_addresses
from repro.spec.interrupts import pending_interrupt, pending_interrupt_for
from repro.spec.pmp import MatchResult, PmpEntry, pmp_check
from repro.spec.platform import (
    PLATFORMS,
    PREMIER_P550,
    QEMU_VIRT,
    RVA23_MACHINE,
    VISIONFIVE2,
    PlatformConfig,
)
from repro.spec.state import MachineState
from repro.spec.step import (
    Bus,
    BusError,
    MemoryAccess,
    Outcome,
    execute_instruction,
    hw_step,
)
from repro.spec.traps import Trap, execute_mret, execute_sret, take_trap

__all__ = [
    "Bus",
    "BusError",
    "CsrFile",
    "MachineState",
    "MatchResult",
    "MemoryAccess",
    "Outcome",
    "PLATFORMS",
    "PREMIER_P550",
    "PlatformConfig",
    "PmpEntry",
    "QEMU_VIRT",
    "RVA23_MACHINE",
    "Trap",
    "VISIONFIVE2",
    "execute_instruction",
    "execute_mret",
    "execute_sret",
    "hw_step",
    "known_csr_addresses",
    "pending_interrupt",
    "pending_interrupt_for",
    "pmp_check",
    "take_trap",
]
