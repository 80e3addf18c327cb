#!/usr/bin/env python3
"""The Star64 experiment (§8.2): virtualizing a closed firmware binary.

The paper's strongest Q1 evidence: on the Star64 board, whose vendor
publishes no firmware sources, the authors pulled the 164 kB image from
flash and ran it under Miralis unmodified.  This demo does the same in
miniature — it assembles a firmware image into raw RV64 machine code
(stand-in for a flash dump; the monitor never sees anything but bytes),
loads it into simulated RAM, and boots the machine through Miralis.
Every privileged instruction in the blob genuinely traps and is emulated.

Run:  python examples/closed_binary_firmware.py
"""

from repro import VISIONFIVE2, memory_regions
from repro.core.config import MiralisConfig
from repro.core.miralis import Miralis
from repro.hart.binary import BinaryProgram
from repro.hart.machine import Machine
from repro.isa import constants as c
from repro.isa.asm import Assembler
from repro.os_model.kernel import KernelProgram
from repro.policy.default import DefaultPolicy


def build_vendor_blob(region_base: int, kernel_entry: int) -> bytes:
    """'Dump' a vendor firmware image: boot path + SBI trap handler."""
    asm = Assembler(base=region_base)
    # Boot: install the trap vector, configure M->S return, jump to the OS.
    asm.auipc("t0", 0)
    asm.addi("t0", "t0", 0x100)
    asm.csrw(c.CSR_MTVEC, "t0")
    asm.li("t1", 3 << 11)
    asm.csrc(c.CSR_MSTATUS, "t1")
    asm.li("t1", 1 << 11)
    asm.csrs(c.CSR_MSTATUS, "t1")  # MPP = S
    asm.li("t2", kernel_entry)
    asm.csrw(c.CSR_MEPC, "t2")
    asm.li("a0", 0)  # boot hart id
    asm.mret()
    while asm.current_address < region_base + 0x100:
        asm.nop()
    # Trap handler: every SBI call -> NOT_SUPPORTED, return past the ecall.
    asm.csrr("t0", c.CSR_MEPC)
    asm.addi("t0", "t0", 4)
    asm.csrw(c.CSR_MEPC, "t0")
    asm.li("a0", -2)
    asm.mret()
    return asm.binary()


def main():
    machine = Machine(VISIONFIVE2)
    regions = memory_regions(VISIONFIVE2)

    def workload(kernel, ctx):
        t = kernel.read_time(ctx)  # handled by the Miralis fast path
        error, _ = kernel.sbi_call(ctx, 0x4242, 0)  # reaches the blob
        print(f"[kernel] running in {ctx.mode.short_name}-mode, time={t}, "
              f"unknown-SBI error={error - (1 << 64)}")
        machine.halt("demo complete")

    kernel = KernelProgram("kernel", regions["kernel"], machine,
                           workload=workload)
    blob_bytes = build_vendor_blob(regions["firmware"].base,
                                   kernel.entry_point)
    print(f"vendor blob: {len(blob_bytes)} bytes of opaque RV64 machine code")
    blob = BinaryProgram("vendor-blob", regions["firmware"], machine,
                         blob_bytes)
    miralis = Miralis(machine, regions["miralis"], blob, MiralisConfig(),
                      DefaultPolicy())
    machine.register(blob)
    machine.register(kernel)
    machine.register(miralis)

    reason = machine.boot(entry=miralis.region.base)
    print(f"halt: {reason}")
    print(f"blob instructions executed:      {blob.steps}")
    stats = machine.stats
    print(f"privileged instructions emulated: {stats.firmware_emulations}")
    print(f"world switches:                  {stats.world_switches}")
    print()
    print("A raw binary image — no sources, no modifications, not even")
    print("knowledge of its layout beyond the entry point — booted the OS")
    print("from user mode.  'The firmware does not need to be open-source.'")


if __name__ == "__main__":
    main()
