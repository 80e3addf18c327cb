#!/usr/bin/env python3
"""Quickstart: boot a VisionFive 2, native and under Miralis, and compare.

Builds the two deployments of Figure 1 — vendor firmware in M-mode
(classical) and vendor firmware deprivileged to vM-mode under the Miralis
virtual firmware monitor — runs the same OS workload on both, and shows
that the OS cannot tell the difference while the monitor reports what it
intercepted.

Run:  python examples/quickstart.py
"""

from repro import VISIONFIVE2, build_native, build_virtualized


def workload(kernel, ctx):
    """A little OS life: timestamps, console output, an IPI, a timer."""
    t0 = kernel.read_time(ctx)
    kernel.print(ctx, f"[kernel] hello! time={t0}\n")
    ctx.compute(50_000)  # some real work
    t1 = kernel.read_time(ctx)
    kernel.print(ctx, f"[kernel] worked for {t1 - t0} timer ticks\n")
    kernel.sbi_send_ipi(ctx, 0b1, 0)  # poke ourselves
    ctx.compute(100)  # the interrupt is delivered here
    count = kernel.software_interrupts
    kernel.print(ctx, f"[kernel] software interrupts: {count}\n")


def main():
    print("=== Native deployment (firmware in M-mode) ===")
    native = build_native(VISIONFIVE2, workload=workload)
    print("halt:", native.run())
    print(native.console_output)
    print(f"traps to M-mode: {native.machine.stats.total_traps}")

    print("=== Miralis deployment (firmware in vM-mode) ===")
    virtualized = build_virtualized(VISIONFIVE2, workload=workload)
    print("halt:", virtualized.run())
    print(virtualized.console_output)
    stats = virtualized.machine.stats
    miralis = virtualized.miralis
    print(f"traps to M-mode:       {stats.total_traps}")
    print(f"fast-path hits:        {dict(miralis.offload.hits)}")
    print(f"emulated instructions: {stats.firmware_emulations}")
    print(f"world switches:        {stats.world_switches}")
    print()
    print("The firmware executed entirely in user mode, yet the OS saw")
    print("identical behaviour — that is the virtual firmware monitor.")


if __name__ == "__main__":
    main()
