#!/usr/bin/env python3
"""Q1 (§8.2): one monitor, many unmodified firmware images.

Runs three different firmware — the StarFive vendor image (OpenSBI-based),
a from-scratch RustSBI, and the Zephyr RTOS — each both natively and
deprivileged under Miralis, and shows behaviour is identical.  No firmware
was modified for virtualization; that is the paper's central claim.

Run:  python examples/multi_firmware.py
"""

from repro import VISIONFIVE2, build_native, build_virtualized, memory_regions
from repro.core.config import MiralisConfig
from repro.core.miralis import Miralis
from repro.firmware.rustsbi import RustSbiFirmware
from repro.firmware.opensbi import VisionFive2Firmware
from repro.firmware.zephyr import ZephyrFirmware
from repro.hart.machine import Machine
from repro.policy.default import DefaultPolicy


def os_workload(results):
    def workload(kernel, ctx):
        results["impl"] = kernel.sbi_impl_id
        t0 = kernel.read_time(ctx)
        ctx.compute(10_000)
        results["monotone"] = kernel.read_time(ctx) > t0
        kernel.sbi_send_ipi(ctx, 1, 0)
        ctx.csrr(0x140)  # delivery point
        results["ipi"] = kernel.software_interrupts >= 1

    return workload


def run_sbi_firmware(firmware_class, virtualized):
    results = {}
    builder = build_virtualized if virtualized else build_native
    system = builder(VISIONFIVE2, firmware_class=firmware_class,
                     workload=os_workload(results))
    system.run()
    results["emulated"] = system.machine.stats.firmware_emulations
    return results


def run_zephyr(virtualized):
    machine = Machine(VISIONFIVE2)
    regions = memory_regions(VISIONFIVE2)
    zephyr = ZephyrFirmware("zephyr", regions["firmware"], machine,
                            num_ticks=5)
    machine.register(zephyr)
    if virtualized:
        miralis = Miralis(machine, regions["miralis"], zephyr,
                          MiralisConfig(), DefaultPolicy())
        machine.register(miralis)
        machine.boot(entry=miralis.region.base)
    else:
        machine.boot(entry=zephyr.entry_point)
    return {"suite": zephyr.suite_passed(), "ticks": zephyr.ticks}


def main():
    for label, firmware_class in (
        ("StarFive vendor firmware (OpenSBI core)", VisionFive2Firmware),
        ("RustSBI (independent implementation)", RustSbiFirmware),
    ):
        native = run_sbi_firmware(firmware_class, virtualized=False)
        virtual = run_sbi_firmware(firmware_class, virtualized=True)
        emulated = virtual.pop("emulated")
        native.pop("emulated")
        match = "IDENTICAL" if native == virtual else "DIFFERS"
        print(f"{label}:")
        print(f"  native:      {native}")
        print(f"  virtualized: {virtual}   [{emulated} instructions emulated]")
        print(f"  OS-visible behaviour: {match}\n")
        assert native == virtual

    native = run_zephyr(virtualized=False)
    virtual = run_zephyr(virtualized=True)
    print("Zephyr RTOS (whole OS in vM-mode):")
    print(f"  native:      {native}")
    print(f"  virtualized: {virtual}")
    assert native["suite"] and virtual["suite"]
    print("\nThree unmodified firmware stacks, one monitor, zero changes.")


if __name__ == "__main__":
    main()
