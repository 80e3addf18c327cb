"""Real machine-code images executed from simulated RAM."""

import pytest

from repro.hart.binary import BinaryProgram
from repro.hart.machine import Machine
from repro.hart.program import Region
from repro.isa import constants as c
from repro.isa.asm import Assembler
from repro.spec.platform import VISIONFIVE2

REGION = Region("firmware", 0x8000_0000, 0x10_0000)


def run_native_image(asm: Assembler) -> tuple[Machine, BinaryProgram]:
    machine = Machine(VISIONFIVE2)
    program = BinaryProgram("image", REGION, machine, asm.binary())
    machine.register(program)
    machine.boot(entry=REGION.base)
    return machine, program


class TestNativeExecution:
    def test_arithmetic_program(self):
        asm = Assembler(base=REGION.base)
        asm.li("a0", 6)
        asm.li("a1", 7)
        asm.mul("a2", "a0", "a1")
        asm.ebreak()
        machine, program = run_native_image(asm)
        assert program.ebreak_hit
        assert machine.harts[0].state.get_xreg(12) == 42

    def test_loop_with_branches(self):
        asm = Assembler(base=REGION.base)
        asm.li("a0", 10)
        asm.li("a1", 0)
        asm.label("loop")
        asm.add("a1", "a1", "a0")
        asm.addi("a0", "a0", -1)
        asm.bne("a0", "zero", "loop")
        asm.ebreak()
        machine, _ = run_native_image(asm)
        assert machine.harts[0].state.get_xreg(11) == 55

    def test_memory_access(self):
        scratch = REGION.base + 0x8000
        asm = Assembler(base=REGION.base)
        asm.li("t0", scratch)
        asm.li("t1", 0xDEAD)
        asm.sd("t1", "t0", 0)
        asm.ld("a0", "t0", 0)
        asm.ebreak()
        machine, _ = run_native_image(asm)
        assert machine.harts[0].state.get_xreg(10) == 0xDEAD

    def test_csr_access_in_m_mode(self):
        asm = Assembler(base=REGION.base)
        asm.li("t0", 0x1234)
        asm.csrw(c.CSR_MSCRATCH, "t0")
        asm.csrr("a0", c.CSR_MSCRATCH)
        asm.ebreak()
        machine, _ = run_native_image(asm)
        assert machine.harts[0].state.get_xreg(10) == 0x1234

    def test_trap_roundtrip_within_image(self):
        """The image installs its own trap vector and handles an ecall."""
        asm = Assembler(base=REGION.base)
        # entry: mtvec = handler; ecall; a1 = a0; ebreak
        asm.auipc("t0", 0)
        asm.addi("t0", "t0", 0x100 - 0)  # handler at region base + 0x100
        asm.csrw(c.CSR_MTVEC, "t0")
        asm.ecall()
        asm.mv("a1", "a0")
        asm.ebreak()
        while asm.current_address < REGION.base + 0x100:
            asm.nop()
        # handler: a0 = 99; mepc += 4; mret
        asm.li("a0", 99)
        asm.csrr("t1", c.CSR_MEPC)
        asm.addi("t1", "t1", 4)
        asm.csrw(c.CSR_MEPC, "t1")
        asm.mret()
        machine, _ = run_native_image(asm)
        assert machine.harts[0].state.get_xreg(11) == 99

    def test_illegal_word_vectors_to_handler(self):
        asm = Assembler(base=REGION.base)
        asm.auipc("t0", 0)
        asm.addi("t0", "t0", 0x100)
        asm.csrw(c.CSR_MTVEC, "t0")
        asm.nop()
        index_of_illegal = len(asm.instructions())
        asm.nop()  # placeholder, patched to an illegal word below
        asm.ebreak()
        while asm.current_address < REGION.base + 0x100:
            asm.nop()
        asm.csrr("a0", c.CSR_MCAUSE)
        asm.csrr("t1", c.CSR_MEPC)
        asm.addi("t1", "t1", 4)
        asm.csrw(c.CSR_MEPC, "t1")
        asm.mret()
        image = bytearray(asm.binary())
        image[4 * index_of_illegal:4 * index_of_illegal + 4] = b"\x00" * 4
        machine = Machine(VISIONFIVE2)
        program = BinaryProgram("image", REGION, machine, bytes(image))
        machine.register(program)
        machine.boot(entry=REGION.base)
        assert machine.harts[0].state.get_xreg(10) == \
            c.TrapCause.ILLEGAL_INSTRUCTION

    def test_runaway_guard(self):
        asm = Assembler(base=REGION.base)
        asm.label("spin")
        asm.j("spin")
        machine = Machine(VISIONFIVE2)
        program = BinaryProgram("image", REGION, machine, asm.binary())
        program.MAX_STEPS = 500
        machine.register(program)
        with pytest.raises(RuntimeError):
            machine.boot(entry=REGION.base)


def closed_firmware_image(kernel_entry: int) -> bytes:
    """A minimal "closed vendor binary" SBI firmware.

    Boot: install the trap vector, drop to S-mode at ``kernel_entry``.
    Trap handler: answer every SBI call with NOT_SUPPORTED (-2).
    """
    asm = Assembler(base=REGION.base)
    asm.auipc("t0", 0)
    asm.addi("t0", "t0", 0x100)
    asm.csrw(c.CSR_MTVEC, "t0")
    # mstatus.MPP = S
    asm.li("t1", 3 << 11)
    asm.csrc(c.CSR_MSTATUS, "t1")
    asm.li("t1", 1 << 11)
    asm.csrs(c.CSR_MSTATUS, "t1")
    asm.li("t2", kernel_entry)
    asm.csrw(c.CSR_MEPC, "t2")
    asm.li("a0", 0)  # boot hart
    asm.mret()
    while asm.current_address < REGION.base + 0x100:
        asm.nop()
    # trap handler: mepc += 4; a0 = -2 (ERR_NOT_SUPPORTED); mret
    asm.csrr("t0", c.CSR_MEPC)
    asm.addi("t0", "t0", 4)
    asm.csrw(c.CSR_MEPC, "t0")
    asm.li("a0", -2)
    asm.mret()
    return asm.binary()


class TestClosedBinaryUnderMiralis:
    """§8.2's Star64 experiment: a closed firmware blob, virtualized."""

    def _build(self):
        from repro.core.config import MiralisConfig
        from repro.core.miralis import Miralis
        from repro.os_model.kernel import KernelProgram
        from repro.policy.default import DefaultPolicy
        from repro.system import memory_regions

        machine = Machine(VISIONFIVE2)
        regions = memory_regions(VISIONFIVE2)
        seen = {}

        def workload(kernel, ctx):
            seen["time"] = kernel.read_time(ctx)
            error, _ = kernel.sbi_call(ctx, 0x999, 0)
            seen["unknown_sbi"] = error
            seen["mode"] = ctx.mode
            machine.halt("demo complete")

        kernel = KernelProgram("kernel", regions["kernel"], machine,
                               workload=workload)
        blob = BinaryProgram(
            "closed-blob", regions["firmware"], machine,
            closed_firmware_image(kernel.entry_point),
        )
        miralis = Miralis(machine, regions["miralis"], blob,
                          MiralisConfig(), DefaultPolicy())
        machine.register(blob)
        machine.register(kernel)
        machine.register(miralis)
        return machine, miralis, blob, seen

    def test_blob_boots_the_os_deprivileged(self):
        machine, miralis, blob, seen = self._build()
        reason = machine.boot(entry=miralis.region.base)
        assert "demo complete" in reason
        assert seen["mode"] == c.S_MODE
        assert seen["time"] >= 0
        # The blob answered the unknown SBI call itself (world switch).
        assert seen["unknown_sbi"] == (-2) & ((1 << 64) - 1)
        # Every privileged instruction of the blob really was emulated.
        assert machine.stats.firmware_emulations >= 10
        assert machine.stats.world_switches >= 2
        # And the blob only ever ran in U-mode: it never hit its native
        # M-mode ebreak path.
        assert not blob.ebreak_hit
