"""System assembly: canonical memory layout and machine builders.

This is the top of the public API: one call builds a complete simulated
platform — machine, firmware, kernel — either *native* (firmware in
physical M-mode, the deployment of Figure 1 left) or *virtualized*
(Miralis in M-mode, firmware deprivileged to vM-mode, Figure 1 right).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Type

from repro.firmware.base import BaseFirmware
from repro.firmware.opensbi import (
    OpenSbiFirmware,
    PremierP550Firmware,
    VisionFive2Firmware,
)
from repro.hart.machine import Machine
from repro.hart.program import Region
from repro.os_model.kernel import KernelProgram, Workload
from repro.spec.platform import PlatformConfig, VISIONFIVE2

# Canonical physical memory layout (offsets from RAM base).
FIRMWARE_OFFSET = 0x0000_0000
FIRMWARE_SIZE = 0x0010_0000  # 1 MiB
MIRALIS_OFFSET = 0x0020_0000
MIRALIS_SIZE = 0x0010_0000  # 1 MiB
KERNEL_OFFSET = 0x0400_0000
KERNEL_SIZE = 0x0100_0000  # 16 MiB
ENCLAVE_OFFSET = 0x0800_0000
ENCLAVE_SIZE = 0x0100_0000  # 16 MiB

#: Default firmware class per platform name.
VENDOR_FIRMWARE = {
    "visionfive2": VisionFive2Firmware,
    "premier-p550": PremierP550Firmware,
}


@dataclasses.dataclass
class System:
    """An assembled platform ready to boot."""

    machine: Machine
    firmware: BaseFirmware
    kernel: Optional[KernelProgram]
    miralis: Optional[object] = None  # core.Miralis when virtualized
    policy: Optional[object] = None

    @property
    def virtualized(self) -> bool:
        return self.miralis is not None

    def run(self) -> str:
        """Boot hart 0 and run until the machine halts; returns the reason."""
        entry = (
            self.miralis.region.base if self.miralis is not None
            else self.firmware.region.base
        )
        return self.machine.boot(entry=entry)

    def run_smp(self, quantum: int = 50, seed: int = 0, jitter: int = 0) -> str:
        """Boot under the deterministic SMP scheduler: all started harts
        interleave round-robin with ``quantum`` checkpoints per slice.

        Returns the halt reason, like :meth:`run`.
        """
        from repro.smp import SmpScheduler

        scheduler = SmpScheduler(
            self.machine, quantum=quantum, seed=seed, jitter=jitter
        )
        entry = (
            self.miralis.region.base if self.miralis is not None
            else self.firmware.region.base
        )
        return scheduler.boot(entry)

    @property
    def console_output(self) -> str:
        return self.machine.uart.text()


def memory_regions(config: PlatformConfig) -> dict[str, Region]:
    """The canonical region map for a platform."""
    base = config.ram_base
    return {
        "firmware": Region("firmware", base + FIRMWARE_OFFSET, FIRMWARE_SIZE),
        "miralis": Region("miralis", base + MIRALIS_OFFSET, MIRALIS_SIZE),
        "kernel": Region("kernel", base + KERNEL_OFFSET, KERNEL_SIZE),
        "enclave": Region("enclave", base + ENCLAVE_OFFSET, ENCLAVE_SIZE),
    }


def build_native(
    config: PlatformConfig = VISIONFIVE2,
    firmware_class: Optional[Type[BaseFirmware]] = None,
    workload: Optional[Workload] = None,
    start_secondaries: bool = False,
    keep_trap_events: bool = True,
    firmware_kwargs: Optional[dict] = None,
    secondary_workload: Optional[Workload] = None,
) -> System:
    """Assemble the classical deployment: vendor firmware in M-mode."""
    machine = Machine(config, keep_trap_events=keep_trap_events)
    regions = memory_regions(config)
    kernel = KernelProgram(
        "kernel",
        regions["kernel"],
        machine,
        workload=workload,
        start_secondaries=start_secondaries,
        secondary_workload=secondary_workload,
    )
    if firmware_class is None:
        firmware_class = VENDOR_FIRMWARE.get(config.name, OpenSbiFirmware)
    firmware = firmware_class(
        "vendor-firmware",
        regions["firmware"],
        machine,
        kernel_entry=kernel.entry_point,
        **(firmware_kwargs or {}),
    )
    machine.register(firmware)
    machine.register(kernel)
    return System(machine=machine, firmware=firmware, kernel=kernel)


def build_virtualized(
    config: PlatformConfig = VISIONFIVE2,
    firmware_class: Optional[Type[BaseFirmware]] = None,
    workload: Optional[Workload] = None,
    policy: Optional[object] = None,
    offload: bool = True,
    start_secondaries: bool = False,
    keep_trap_events: bool = True,
    firmware_kwargs: Optional[dict] = None,
    miralis_config: Optional[object] = None,
    secondary_workload: Optional[Workload] = None,
) -> System:
    """Assemble the VFM deployment: Miralis in M-mode, firmware in vM-mode.

    ``miralis_config`` overrides the default :class:`MiralisConfig`
    (e.g. to arm the firmware watchdog for chaos runs); when given, the
    ``offload`` flag is ignored in favour of the config's own setting.
    """
    from repro.core.config import MiralisConfig
    from repro.core.miralis import Miralis
    from repro.policy.default import DefaultPolicy

    machine = Machine(config, keep_trap_events=keep_trap_events)
    regions = memory_regions(config)
    kernel = KernelProgram(
        "kernel",
        regions["kernel"],
        machine,
        workload=workload,
        start_secondaries=start_secondaries,
        secondary_workload=secondary_workload,
    )
    if firmware_class is None:
        firmware_class = VENDOR_FIRMWARE.get(config.name, OpenSbiFirmware)
    firmware = firmware_class(
        "vendor-firmware",
        regions["firmware"],
        machine,
        kernel_entry=kernel.entry_point,
        **(firmware_kwargs or {}),
    )
    if miralis_config is None:
        miralis_config = MiralisConfig(offload_enabled=offload)
    miralis = Miralis(
        machine=machine,
        region=regions["miralis"],
        firmware=firmware,
        config=miralis_config,
        policy=policy if policy is not None else DefaultPolicy(),
    )
    machine.register(firmware)
    machine.register(kernel)
    machine.register(miralis)
    return System(
        machine=machine,
        firmware=firmware,
        kernel=kernel,
        miralis=miralis,
        policy=miralis.policy,
    )
