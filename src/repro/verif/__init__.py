"""Lightweight formal methods for VFMs (§6).

Faithful emulation (Definition 1), faithful execution (Definition 2),
virtual-interrupt delivery and interrupt-routing progress, checked by
exhaustive structured enumeration plus property-based sampling against
the executable specification.
"""

from repro.verif.emulation import (
    StateDescription,
    check_instruction,
    compare_states,
    run_emulation_check,
    vfm_step,
    virtual_platform,
)
from repro.verif.execution import (
    check_pmp_configuration,
    run_execution_check,
)
from repro.verif.fuzz import (
    FuzzFinding,
    Observation,
    Scenario,
    fuzz_scenario,
)
from repro.verif.interrupts import run_interrupt_check
from repro.verif.report import CheckReport, Divergence, merge_reports
from repro.verif.routing import run_routing_check
from repro.verif.spaces import (
    BOUNDARY_VALUES,
    address_probe_points,
    bit_walk,
    csr_instruction_space,
    csr_value_space,
    interrupt_space,
    mstatus_space,
    pmp_config_space,
    system_instruction_space,
)

__all__ = [
    "BOUNDARY_VALUES",
    "FuzzFinding",
    "Observation",
    "Scenario",
    "fuzz_scenario",
    "CheckReport",
    "Divergence",
    "merge_reports",
    "StateDescription",
    "address_probe_points",
    "bit_walk",
    "check_instruction",
    "check_pmp_configuration",
    "compare_states",
    "csr_instruction_space",
    "csr_value_space",
    "interrupt_space",
    "mstatus_space",
    "pmp_config_space",
    "run_emulation_check",
    "run_execution_check",
    "run_interrupt_check",
    "run_routing_check",
    "system_instruction_space",
    "vfm_step",
    "virtual_platform",
]
