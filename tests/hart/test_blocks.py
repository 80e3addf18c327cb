"""The basic-block engine: caching, invalidation, and exact identity.

Every behavioural test here is differential: the same image runs with the
block engine (machines built normally) and without it
(``blocks_disabled()``), and the complete observable outcome — registers,
pc, cycles, instret, the mtime-stamped trap event stream, scheduler
interleaving — must be byte-identical.  The engine is an optimization;
any divergence is a bug by definition.
"""

import dataclasses

import pytest

from repro import perf
from repro.hart.binary import BinaryProgram
from repro.hart.blocks import blocks_disabled
from repro.hart.machine import Machine
from repro.hart.program import Region
from repro.isa import constants as c
from repro.isa.asm import Assembler
from repro.smp import SmpScheduler
from repro.spec.platform import VISIONFIVE2

REGION = Region("firmware", 0x8000_0000, 0x10_0000)
MAILBOX = REGION.base + 0xF000


@pytest.fixture(autouse=True)
def _fresh_caches():
    perf.clear_caches()
    yield
    perf.clear_caches()


def _machine(blocks: bool, platform=VISIONFIVE2) -> Machine:
    if blocks:
        return Machine(platform)
    with blocks_disabled():
        return Machine(platform)


def _register(machine: Machine, image: bytes) -> BinaryProgram:
    program = BinaryProgram("image", REGION, machine, image)
    machine.register(program)
    return program


def _outcome(machine: Machine, program: BinaryProgram) -> dict:
    hart = machine.harts[0]
    return {
        "halt": machine.halt_reason,
        "pc": hart.state.pc,
        "xregs": tuple(hart.state.xregs),
        "cycles": hart.cycles,
        "instret": hart.instret,
        "machine_cycles": machine.cycles,
        "mtime": machine.read_mtime(),
        "mcycle": hart.state.csr._simple.get(c.CSR_MCYCLE),
        "minstret": hart.state.csr._simple.get(c.CSR_MINSTRET),
        "steps": program.steps,
        "traps": tuple(
            (e.hart, e.cause, e.is_interrupt, e.mtime)
            for e in machine.stats.events
        ),
    }


def _run(image: bytes, blocks: bool) -> tuple[dict, Machine]:
    machine = _machine(blocks)
    program = _register(machine, image)
    machine.boot(entry=REGION.base)
    return _outcome(machine, program), machine


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


class TestBlockCaching:
    def test_blocks_are_cached_and_hit(self):
        outcome, machine = _run(_alu_loop_image(), blocks=True)
        engine = machine.blocks
        assert engine.hits > 0
        assert 0 < engine.misses < engine.hits
        assert outcome["halt"] == "image: ebreak"

    def test_identity_with_single_step_engine(self):
        on, _ = _run(_alu_loop_image(), blocks=True)
        off, machine = _run(_alu_loop_image(), blocks=False)
        assert machine.blocks is None
        assert on == off

    def test_stats_provider_registered(self):
        _, machine = _run(_alu_loop_image(), blocks=True)
        stats = perf.cache_stats(owner=machine)
        assert stats["hart.blocks"]["hits"] == machine.blocks.hits

    def test_fault_injector_disables_engine(self):
        from repro.faults import FaultInjector, FaultPlan

        machine = _machine(blocks=True)
        program = _register(machine, _alu_loop_image())
        machine.install_fault_injector(FaultInjector(FaultPlan(name="quiet")))
        machine.boot(entry=REGION.base)
        assert program.ebreak_hit
        assert machine.blocks.hits == 0


PATCH_TARGET = REGION.base + 0x200


def _self_modifying_image() -> bytes:
    """The loop patches its own downstream instruction every iteration.

    The instruction at ``PATCH_TARGET`` alternates between
    ``addi a1, a1, 1`` and ``addi a1, a1, 3`` — each store lands inside a
    cached block, so the engine must invalidate and rebuild, and the
    final ``a1`` proves the rewritten bytes (not a stale decoded run)
    executed.
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


class TestInvalidation:
    def test_self_modifying_code_executes_new_bytes(self):
        image = _self_modifying_image()
        on, machine = _run(image, blocks=True)
        off, _ = _run(image, blocks=False)
        assert on == off
        assert machine.blocks.invalidations > 0
        # 40 iterations; the store flips the slot to +3 before it first
        # runs, then alternates: 20*(3+1) = 80.
        assert on["xregs"][11] == 80

    def test_identical_byte_store_keeps_blocks(self):
        image = _self_modifying_image()
        machine = _machine(blocks=True)
        _register(machine, image)
        machine.boot(entry=REGION.base)
        baseline = machine.blocks.invalidations
        current = machine.ram.read(PATCH_TARGET, 4)
        machine.ram.write(PATCH_TARGET, 4, current)
        assert machine.blocks.invalidations == baseline

    def test_snapshot_restore_invalidates(self):
        from repro.snapshot import capture, restore

        machine = _machine(blocks=True)
        _register(machine, _alu_loop_image())
        machine.boot(entry=REGION.base)
        assert machine.blocks._blocks
        checkpoint = capture(machine)
        restore(machine, checkpoint)
        assert not machine.blocks._blocks
        assert not machine.ram.code_pages

    def test_load_image_invalidates(self):
        machine = _machine(blocks=True)
        _register(machine, _alu_loop_image())
        machine.boot(entry=REGION.base)
        assert machine.blocks._blocks
        machine.ram.load_image(REGION.base, b"\x00" * 16)
        assert not machine.blocks._blocks


def _timer_image() -> bytes:
    """A long ALU run with one timer interrupt landing mid-run.

    The handler disarms the timer and counts into ``s0``; the trap's
    mtime stamp (recorded by ``TrapStats``) pins down *exactly* when the
    interrupt was delivered, so a block that over-batched cycles past
    the deadline would show up as a shifted stamp.
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


class TestTimerExactness:
    def test_timer_interrupt_mid_block_is_identical(self):
        image = _timer_image()
        on, machine = _run(image, blocks=True)
        off, _ = _run(image, blocks=False)
        assert on == off
        assert machine.harts[0].state.get_xreg(8) == 1  # s0: one tick
        interrupts = [t for t in on["traps"] if t[2]]
        assert len(interrupts) == 1
        assert machine.blocks.hits > 0  # engine engaged around the trap


H0_LOOP = REGION.base + 0x40
H0_TARGET = H0_LOOP + 4 * 12
H1_ENTRY = REGION.base + 0x800


def _smp_image(patch: bool = False) -> bytes:
    """Two harts in one image: hart 0 consumes a mailbox hart 1 produces.

    Hart 0 (at the region base) accumulates the mailbox value between
    ALU runs — its final ``s1`` fingerprints the exact interleaving.
    Hart 1 (at ``H1_ENTRY``) increments and publishes the mailbox; with
    ``patch`` it also flips one of hart 0's block instructions between
    two encodings every round, exercising cross-hart invalidation while
    hart 0 may be sitting inside the block.
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


def _run_smp(image: bytes, blocks: bool, quantum: int, jitter: int,
             seed: int) -> dict:
    platform = dataclasses.replace(VISIONFIVE2, num_harts=2)
    machine = _machine(blocks, platform)
    program = _register(machine, image)
    scheduler = SmpScheduler(machine, quantum=quantum, seed=seed,
                             jitter=jitter)
    machine.harts[1].state.pc = H1_ENTRY
    scheduler.start_hart(machine.harts[1])
    scheduler.boot(entry=REGION.base)
    return {
        "halt": machine.halt_reason,
        "slices": scheduler.slices,
        "sched_steps": tuple(scheduler.steps),
        "xregs": tuple(tuple(h.state.xregs) for h in machine.harts),
        "pcs": tuple(h.state.pc for h in machine.harts),
        "cycles": tuple(h.cycles for h in machine.harts),
        "instret": tuple(h.instret for h in machine.harts),
        "machine_cycles": machine.cycles,
        "steps": program.steps,
        "traps": tuple(
            (e.hart, e.cause, e.is_interrupt, e.mtime)
            for e in machine.stats.events
        ),
        "engine": None if machine.blocks is None else machine.blocks.hits,
    }


class TestSmpIdentity:
    @pytest.mark.parametrize("quantum,jitter,seed", [
        (7, 3, 11),
        (50, 0, 0),
    ])
    def test_interleavings_are_byte_identical(self, quantum, jitter, seed):
        image = _smp_image()
        on = _run_smp(image, True, quantum, jitter, seed)
        off = _run_smp(image, False, quantum, jitter, seed)
        assert on.pop("engine") > 0
        off.pop("engine")
        assert on == off

    def test_cross_hart_code_patch_is_byte_identical(self):
        image = _smp_image(patch=True)
        on = _run_smp(image, True, 7, 3, 11)
        off = _run_smp(image, False, 7, 3, 11)
        on.pop("engine")
        off.pop("engine")
        assert on == off
