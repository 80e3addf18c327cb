"""Benchmark runner: execute a workload under the paper's three deployments.

Every performance figure compares the same workload under:

* **native** — vendor firmware in physical M-mode (the baseline),
* **miralis** — firmware virtualized, fast-path offload enabled,
* **miralis-no-offload** — firmware virtualized, every trap re-injected.

The runner assembles a fresh machine per configuration, runs the workload
to completion, and returns comparable measurements (simulated cycles,
trap and world-switch counts).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.hart.program import GuestContext
from repro.os_model.kernel import KernelProgram
from repro.os_model.workloads import TrapMix, WorkloadResult, run_trap_mix
from repro.spec.platform import PlatformConfig, VISIONFIVE2
from repro.system import System, build_native, build_virtualized

CONFIGURATIONS = ("native", "miralis", "miralis-no-offload")


@dataclasses.dataclass
class RunMeasurement:
    """Everything measured from one workload run."""

    configuration: str
    platform: str
    workload: str
    cycles: float
    simulated_seconds: float
    useful_instructions: int
    traps: int
    world_switches: int
    firmware_emulations: int
    fastpath_hits: int
    halt_reason: str = ""

    @property
    def throughput(self) -> float:
        """Useful work per simulated second (higher is better)."""
        if self.simulated_seconds == 0:
            return 0.0
        return self.useful_instructions / self.simulated_seconds

    @property
    def world_switch_rate(self) -> float:
        if self.simulated_seconds == 0:
            return 0.0
        return self.world_switches / self.simulated_seconds

    @property
    def trap_rate(self) -> float:
        if self.simulated_seconds == 0:
            return 0.0
        return self.traps / self.simulated_seconds


def build_system(configuration: str, platform: PlatformConfig,
                 workload, policy_factory=None, **kwargs) -> System:
    """Assemble one of the three canonical deployments."""
    if configuration == "native":
        return build_native(platform, workload=workload, **kwargs)
    if configuration == "miralis":
        policy = policy_factory() if policy_factory else None
        return build_virtualized(
            platform, workload=workload, policy=policy, offload=True, **kwargs
        )
    if configuration == "miralis-no-offload":
        policy = policy_factory() if policy_factory else None
        return build_virtualized(
            platform, workload=workload, policy=policy, offload=False, **kwargs
        )
    raise ValueError(f"unknown configuration {configuration!r}")


def run_workload(
    configuration: str,
    platform: PlatformConfig = VISIONFIVE2,
    mix: Optional[TrapMix] = None,
    operations: int = 1_000,
    policy_factory=None,
) -> RunMeasurement:
    """Run one (configuration, workload) cell and return its measurement."""
    result_box: dict[str, WorkloadResult] = {}

    def workload(kernel: KernelProgram, ctx: GuestContext) -> None:
        result_box["result"] = run_trap_mix(kernel, ctx, mix,
                                            operations=operations)

    system = build_system(
        configuration, platform, workload, policy_factory=policy_factory,
        keep_trap_events=False,
    )
    halt_reason = system.run()
    result = result_box.get("result")
    stats = system.machine.stats
    if result is not None:
        cycles = result.total_cycles
        seconds = result.simulated_seconds
        useful = result.useful_instructions
        # Measurement-window counts: boot-time traps excluded.
        traps = result.traps
        world_switches = result.world_switches
    else:
        cycles = system.machine.cycles
        seconds = system.machine.elapsed_seconds
        useful = 0
        traps = stats.total_traps
        world_switches = stats.world_switches
    return RunMeasurement(
        configuration=configuration,
        platform=platform.name,
        workload=mix.name,
        cycles=cycles,
        simulated_seconds=seconds,
        useful_instructions=useful,
        traps=traps,
        world_switches=world_switches,
        firmware_emulations=stats.firmware_emulations,
        fastpath_hits=stats.fastpath_hits,
        halt_reason=halt_reason,
    )


def compare_configurations(
    platform: PlatformConfig,
    mix: TrapMix,
    operations: int = 1_000,
) -> dict[str, RunMeasurement]:
    """The standard three-way comparison used by most figures."""
    return {
        configuration: run_workload(
            configuration, platform=platform, mix=mix, operations=operations,
        )
        for configuration in CONFIGURATIONS
    }
