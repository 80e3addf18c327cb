"""Real machine-code images executed from simulated RAM."""

import dataclasses
import hashlib
import json

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


def closed_firmware_image(kernel_entry: int,
                          checksum_rounds: int = 0) -> bytes:
    """A minimal "closed vendor binary" SBI firmware.

    Boot: install the trap vector, run ``checksum_rounds`` rounds of an
    ALU checksum loop, drop to S-mode at ``kernel_entry``.
    Trap handler: answer every SBI call with NOT_SUPPORTED (-2).
    """
    asm = Assembler(base=REGION.base)
    asm.auipc("t0", 0)
    asm.addi("t0", "t0", 0x100)
    asm.csrw(c.CSR_MTVEC, "t0")
    if checksum_rounds:
        asm.li("a1", checksum_rounds)
        asm.label("sum")
        for i in range(16):
            asm.addi("a2", "a2", i + 1)
            asm.xori("a3", "a2", 0x3C)
        asm.addi("a1", "a1", -1)
        asm.bne("a1", "zero", "sum")
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


# ----------------------------------------------------------------------
# Pinned whole-run outcomes.
#
# Each scenario below reduces one complete run to a dict (registers, pc,
# cycles, instret, mtime, the mtime-stamped trap stream, scheduler
# interleaving, or a virtualized run's trace, coverage and checkpoint)
# and compares the sha256 of its canonical JSON against a pinned value.
# Any change to fetch, decode, execution, cycle accounting, interrupt
# timing or SMP interleaving of a binary image moves a digest.  The
# digests were recorded on a tree that could also run binary images
# through a cache of decoded basic blocks; both paths produced them.

MAILBOX = REGION.base + 0xF000


def _digest(outcome) -> str:
    encoded = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def _trap_stream(machine: Machine) -> list:
    return [(e.hart, e.cause, e.is_interrupt, e.mtime)
            for e in machine.stats.events]


def _run_outcome(image: bytes) -> dict:
    machine = Machine(VISIONFIVE2)
    program = BinaryProgram("image", REGION, machine, image)
    machine.register(program)
    machine.boot(entry=REGION.base)
    hart = machine.harts[0]
    return {
        "halt": machine.halt_reason,
        "pc": hart.state.pc,
        "xregs": list(hart.state.xregs),
        "cycles": hart.cycles,
        "instret": hart.instret,
        "machine_cycles": machine.cycles,
        "mtime": machine.read_mtime(),
        "mcycle": hart.state.csr._simple.get(c.CSR_MCYCLE),
        "minstret": hart.state.csr._simple.get(c.CSR_MINSTRET),
        "steps": program.steps,
        "traps": _trap_stream(machine),
    }


def _alu_loop_image(iterations: int = 50, body: int = 24) -> bytes:
    asm = Assembler(base=REGION.base)
    asm.li("a0", iterations)
    asm.li("a1", 0)
    asm.label("loop")
    for i in range(body):
        asm.addi("a1", "a1", 1)
        asm.xori("t0", "a1", 0x5A + (i & 7))
    asm.addi("a0", "a0", -1)
    asm.bne("a0", "zero", "loop")
    asm.ebreak()
    return asm.binary()


PATCH_TARGET = REGION.base + 0x200


def _self_modifying_image() -> bytes:
    """The loop patches its own downstream instruction every iteration.

    The instruction at ``PATCH_TARGET`` alternates between
    ``addi a1, a1, 1`` and ``addi a1, a1, 3``; the final ``a1`` proves
    the rewritten bytes, not the ones first fetched, executed.
    """
    word_add1 = Assembler().addi("a1", "a1", 1).assemble()[-1]
    word_add3 = Assembler().addi("a1", "a1", 3).assemble()[-1]
    asm = Assembler(base=REGION.base)
    asm.li("a0", 40)
    asm.li("a1", 0)
    asm.li("t0", word_add1)
    asm.li("t1", word_add3)
    asm.li("t2", PATCH_TARGET)
    asm.label("loop")
    for _ in range(8):
        asm.addi("a2", "a2", 1)
    # Swap t0/t1, then store the patch word over PATCH_TARGET.
    asm.xor("t0", "t0", "t1")
    asm.xor("t1", "t0", "t1")
    asm.xor("t0", "t0", "t1")
    asm.sw("t1", "t2", 0)
    for _ in range(8):
        asm.addi("a3", "a3", 1)
    while asm.current_address < PATCH_TARGET:
        asm.addi("a4", "a4", 1)
    asm.addi("a1", "a1", 1)  # the patched slot
    asm.addi("a0", "a0", -1)
    asm.bne("a0", "zero", "loop")
    asm.ebreak()
    return asm.binary()


def _timer_image() -> bytes:
    """A long ALU run with one timer interrupt landing mid-run.

    The handler disarms the timer and counts into ``s0``; the trap's
    mtime stamp (recorded by ``TrapStats``) pins down exactly when the
    interrupt was delivered.
    """
    mtimecmp = Machine(VISIONFIVE2).clint.mtimecmp_address(0)
    asm = Assembler(base=REGION.base)
    asm.li("t0", REGION.base + 0x100)
    asm.csrw(c.CSR_MTVEC, "t0")
    # At 1.5 GHz a VF2 mtime tick is 375 cycles: a deadline of 40 lands
    # ~15k instructions in, deep inside the ALU loop below.
    asm.li("t1", 40)
    asm.li("t2", mtimecmp)
    asm.sd("t1", "t2", 0)
    asm.li("t3", c.MIP_MTIP)
    asm.csrs(c.CSR_MIE, "t3")
    asm.csrrsi("zero", c.CSR_MSTATUS, c.MSTATUS_MIE)
    asm.li("a0", 500)
    asm.label("loop")
    for _ in range(30):
        asm.addi("a1", "a1", 1)
    asm.addi("a0", "a0", -1)
    asm.bne("a0", "zero", "loop")
    asm.ebreak()
    while asm.current_address < REGION.base + 0x100:
        asm.nop()
    # Handler: count the tick, push mtimecmp to the far future, return.
    asm.addi("s0", "s0", 1)
    asm.li("t4", 1 << 40)
    asm.li("t5", mtimecmp)
    asm.sd("t4", "t5", 0)
    asm.mret()
    return asm.binary()


H0_LOOP = REGION.base + 0x40
H0_TARGET = H0_LOOP + 4 * 12
H1_ENTRY = REGION.base + 0x800


def _smp_image(patch: bool = False) -> bytes:
    """Two harts in one image: hart 0 consumes a mailbox hart 1 produces.

    Hart 0 (at the region base) accumulates the mailbox value between
    ALU runs; its final ``s1`` fingerprints the exact interleaving.
    Hart 1 (at ``H1_ENTRY``) increments and publishes the mailbox; with
    ``patch`` it also flips one of hart 0's loop instructions between two
    encodings every round, so hart 0 executes code another hart rewrites.
    """
    word_a = Assembler().addi("a2", "a2", 1).assemble()[-1]
    word_b = Assembler().addi("a2", "a2", 2).assemble()[-1]
    asm = Assembler(base=REGION.base)
    asm.li("gp", MAILBOX)
    asm.li("a0", 120)
    while asm.current_address < H0_LOOP:
        asm.nop()
    asm.label("h0_loop")
    for _ in range(12):
        asm.addi("a1", "a1", 1)
    assert asm.current_address == H0_TARGET
    asm.addi("a2", "a2", 1)  # patchable slot
    for _ in range(4):
        asm.addi("a4", "a4", 1)
    asm.ld("t5", "gp", 0)
    asm.add("s1", "s1", "t5")
    asm.addi("a0", "a0", -1)
    asm.bne("a0", "zero", "h0_loop")
    asm.ebreak()
    while asm.current_address < H1_ENTRY:
        asm.nop()
    asm.label("h1")
    asm.li("gp", MAILBOX)
    if patch:
        asm.li("t0", word_a)
        asm.li("t1", word_b)
        asm.li("t2", H0_TARGET)
    asm.label("h1_loop")
    for _ in range(9):
        asm.addi("s2", "s2", 3)
    asm.sd("s2", "gp", 0)
    if patch:
        asm.xor("t0", "t0", "t1")
        asm.xor("t1", "t0", "t1")
        asm.xor("t0", "t0", "t1")
        asm.sw("t1", "t2", 0)
    asm.j("h1_loop")
    return asm.binary()


def _smp_outcome(image: bytes, quantum: int, jitter: int,
                 seed: int) -> dict:
    from repro.smp import SmpScheduler

    platform = dataclasses.replace(VISIONFIVE2, num_harts=2)
    machine = Machine(platform)
    program = BinaryProgram("image", REGION, machine, image)
    machine.register(program)
    scheduler = SmpScheduler(machine, quantum=quantum, seed=seed,
                             jitter=jitter)
    machine.harts[1].state.pc = H1_ENTRY
    scheduler.start_hart(machine.harts[1])
    scheduler.boot(entry=REGION.base)
    return {
        "halt": machine.halt_reason,
        "slices": scheduler.slices,
        "sched_steps": list(scheduler.steps),
        "xregs": [list(h.state.xregs) for h in machine.harts],
        "pcs": [h.state.pc for h in machine.harts],
        "cycles": [h.cycles for h in machine.harts],
        "instret": [h.instret for h in machine.harts],
        "machine_cycles": machine.cycles,
        "steps": program.steps,
        "traps": _trap_stream(machine),
    }


def _closed_blob_fingerprint() -> dict:
    """The closed blob with an ALU checksum loop, under Miralis.

    The blob's boot code runs the loop in vM-mode (physical U-mode)
    before deprivileging to a Python-modelled kernel, so the run covers
    real world switches; the fingerprint includes the trace, the
    coverage digest and the final checkpoint digest.
    """
    from repro.core.config import MiralisConfig
    from repro.core.miralis import Miralis
    from repro.coverage import CoverageMap
    from repro.os_model.kernel import KernelProgram
    from repro.policy.default import DefaultPolicy
    from repro.snapshot import capture
    from repro.system import memory_regions
    from repro.trace import Tracer

    machine = Machine(VISIONFIVE2)
    regions = memory_regions(VISIONFIVE2)
    assert regions["firmware"].base == REGION.base

    def workload(kernel, ctx):
        kernel.sbi_call(ctx, 0x999, 0)
        machine.halt("blob demo complete")

    kernel = KernelProgram("kernel", regions["kernel"], machine,
                           workload=workload)
    blob = BinaryProgram(
        "closed-blob", regions["firmware"], machine,
        closed_firmware_image(kernel.entry_point, checksum_rounds=60),
    )
    miralis = Miralis(machine, regions["miralis"], blob,
                      MiralisConfig(), DefaultPolicy())
    machine.register(blob)
    machine.register(kernel)
    machine.register(miralis)
    tracer = Tracer()
    coverage = CoverageMap()
    machine.tracer = tracer
    machine.coverage = coverage
    reason = machine.boot(entry=miralis.region.base)
    hart = machine.harts[0]
    return {
        "halt": reason,
        "pc": hart.state.pc,
        "xregs": list(hart.state.xregs),
        "cycles": hart.cycles,
        "instret": hart.instret,
        "world_switches": machine.stats.world_switches,
        "trace": [event.to_tuple() for event in tracer.events()],
        "coverage": coverage.digest(),
        "checkpoint": capture(machine).digest(),
    }


#: sha256 of each scenario's canonical JSON outcome.
PINNED = {
    "alu-loop":
        "571e0799720a73392d9e2650ff0c4aff8b64a67ca5a0020363cf7c208f9aed2f",
    "self-modifying":
        "993bb62d9aa6bb6184680dbb10afde9fa3da442ad2e4da0d8413acc8762357e6",
    "timer":
        "640c54db0576dac181761314969aa47275602ea638922f2c644ea5feed5eace8",
    "smp-7-3-11":
        "757066e08fa6e5c83080bf12bcbfc46a68a778940a5536498a9f647771d4757e",
    "smp-50-0-0":
        "08c30ebc886c84e5588c5c1c058bfb4907fd3501284742a74a8d89c0b202984e",
    "smp-patch":
        "2ee51d1bea1f86313c6d215cc41794db60186742afa5e22487546f5d553525ca",
    "closed-blob":
        "4069e795915898c6c80f24a76e89e0ba73d1e3a42be240a62bce6c359678f4b3",
}


class TestPinnedOutcomes:
    def test_alu_loop(self):
        outcome = _run_outcome(_alu_loop_image())
        assert outcome["halt"] == "image: ebreak"
        assert _digest(outcome) == PINNED["alu-loop"]

    def test_self_modifying_code_executes_new_bytes(self):
        outcome = _run_outcome(_self_modifying_image())
        # 40 iterations; the store flips the slot to +3 before it first
        # runs, then alternates: 20*(3+1) = 80.
        assert outcome["xregs"][11] == 80
        assert _digest(outcome) == PINNED["self-modifying"]

    def test_timer_interrupt_mid_run(self):
        outcome = _run_outcome(_timer_image())
        assert outcome["xregs"][8] == 1  # s0: one tick
        interrupts = [trap for trap in outcome["traps"] if trap[2]]
        assert len(interrupts) == 1
        assert _digest(outcome) == PINNED["timer"]

    @pytest.mark.parametrize("quantum,jitter,seed", [
        (7, 3, 11),
        (50, 0, 0),
    ])
    def test_smp_mailbox_interleaving(self, quantum, jitter, seed):
        outcome = _smp_outcome(_smp_image(), quantum, jitter, seed)
        key = f"smp-{quantum}-{jitter}-{seed}"
        assert _digest(outcome) == PINNED[key]

    def test_cross_hart_code_patch(self):
        outcome = _smp_outcome(_smp_image(patch=True), 7, 3, 11)
        assert _digest(outcome) == PINNED["smp-patch"]

    def test_virtualized_closed_blob(self):
        fingerprint = _closed_blob_fingerprint()
        assert fingerprint["halt"] == "blob demo complete"
        assert fingerprint["world_switches"] >= 2
        assert _digest(fingerprint) == PINNED["closed-blob"]
