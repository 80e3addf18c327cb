"""Cache-on/off differential identity for full-system runs.

The block engine must be architecturally invisible: every firmware boot,
every chaos cell, and every virtualized closed-blob run must produce
byte-identical trace streams, coverage digests, ChaosResult documents,
and final checkpoint digests whether the engine is on (machines built
normally) or off (``blocks_disabled()``).
"""

import dataclasses
import json
from contextlib import nullcontext

import pytest

from repro import perf
from repro.coverage import CoverageMap
from repro.faults.chaos import CHAOS_FIRMWARES, run_chaos
from repro.hart.blocks import blocks_disabled
from repro.trace import Tracer


@pytest.fixture(autouse=True)
def _fresh_caches():
    perf.clear_caches()
    yield
    perf.clear_caches()


def _blocks_ctx(blocks: bool):
    return nullcontext() if blocks else blocks_disabled()


def _chaos_doc(firmware: str, plan: str, seed: int, blocks: bool,
               harts=None) -> str:
    with _blocks_ctx(blocks):
        result = run_chaos(firmware, plan=plan, seed=seed, harts=harts)
    assert result.error is None
    return json.dumps(dataclasses.asdict(result), sort_keys=True,
                      default=list)


def _boot_fingerprint(firmware: str, harts, blocks: bool) -> tuple:
    tracer = Tracer()
    coverage = CoverageMap()
    with _blocks_ctx(blocks):
        result = run_chaos(firmware, plan="none", seed=0, tracer=tracer,
                           coverage=coverage, harts=harts)
    assert result.error is None
    return (
        json.dumps(dataclasses.asdict(result), sort_keys=True, default=list),
        tuple(event.to_tuple() for event in tracer.events()),
        coverage.digest(),
    )


class TestFirmwareBootIdentity:
    """Every firmware × every hart count: trace + coverage + result."""

    @pytest.mark.parametrize("harts", [None, 2, 4])
    @pytest.mark.parametrize("firmware", CHAOS_FIRMWARES)
    def test_boot_identity(self, firmware, harts):
        on = _boot_fingerprint(firmware, harts, blocks=True)
        off = _boot_fingerprint(firmware, harts, blocks=False)
        assert on == off


class TestChaosMatrix:
    """The (firmware × fault-plan × seed) mini-matrix from the issue."""

    @pytest.mark.parametrize("firmware,plan,seed", [
        ("opensbi", "none", 0),
        ("opensbi", "transient-mmio", 3),
        ("opensbi", "decode-flip", 5),
        ("rustsbi", "csr-chaos", 1),
        ("rustsbi", "mtvec-smash", 2),
        ("zephyr", "transient-mmio", 4),
        ("malicious", "none", 0),
    ])
    def test_chaos_result_identity(self, firmware, plan, seed):
        on = _chaos_doc(firmware, plan, seed, blocks=True)
        off = _chaos_doc(firmware, plan, seed, blocks=False)
        assert on == off

    def test_smp_chaos_identity(self):
        on = _chaos_doc("opensbi", "transient-mmio", 9, blocks=True, harts=2)
        off = _chaos_doc("opensbi", "transient-mmio", 9, blocks=False, harts=2)
        assert on == off


def _closed_blob_run(blocks: bool) -> tuple:
    """A closed vendor blob under Miralis — the engine's virtualized path.

    The blob's boot code runs an ALU checksum loop long enough to form
    cached blocks in vM-mode (physical U-mode) before deprivileging to a
    Python-modelled kernel, so this exercises world-keyed blocks, real
    world switches, and the final checkpoint digest.
    """
    from repro.core.config import MiralisConfig
    from repro.core.miralis import Miralis
    from repro.hart.binary import BinaryProgram
    from repro.hart.machine import Machine
    from repro.isa import constants as c
    from repro.isa.asm import Assembler
    from repro.os_model.kernel import KernelProgram
    from repro.policy.default import DefaultPolicy
    from repro.snapshot import capture
    from repro.spec.platform import VISIONFIVE2
    from repro.system import memory_regions

    with _blocks_ctx(blocks):
        machine = Machine(VISIONFIVE2)
    regions = memory_regions(VISIONFIVE2)
    base = regions["firmware"].base

    def workload(kernel, ctx):
        error, _ = kernel.sbi_call(ctx, 0x999, 0)
        machine.halt("blob demo complete")

    kernel = KernelProgram("kernel", regions["kernel"], machine,
                           workload=workload)
    asm = Assembler(base=base)
    asm.auipc("t0", 0)
    asm.addi("t0", "t0", 0x100)
    asm.csrw(c.CSR_MTVEC, "t0")
    asm.li("a1", 60)
    asm.label("sum")  # an ALU stretch the engine can cache
    for i in range(16):
        asm.addi("a2", "a2", i + 1)
        asm.xori("a3", "a2", 0x3C)
    asm.addi("a1", "a1", -1)
    asm.bne("a1", "zero", "sum")
    asm.li("t1", 3 << 11)  # mstatus.MPP = S
    asm.csrc(c.CSR_MSTATUS, "t1")
    asm.li("t1", 1 << 11)
    asm.csrs(c.CSR_MSTATUS, "t1")
    asm.li("t2", kernel.entry_point)
    asm.csrw(c.CSR_MEPC, "t2")
    asm.li("a0", 0)
    asm.mret()
    while asm.current_address < base + 0x100:
        asm.nop()
    # Trap handler: mepc += 4; a0 = -2 (NOT_SUPPORTED); mret.
    asm.csrr("t0", c.CSR_MEPC)
    asm.addi("t0", "t0", 4)
    asm.csrw(c.CSR_MEPC, "t0")
    asm.li("a0", -2)
    asm.mret()

    blob = BinaryProgram("closed-blob", regions["firmware"], machine,
                         asm.binary())
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
    fingerprint = (
        reason,
        hart.state.pc,
        tuple(hart.state.xregs),
        hart.cycles,
        hart.instret,
        machine.stats.world_switches,
        tuple(event.to_tuple() for event in tracer.events()),
        coverage.digest(),
        capture(machine).digest(),
    )
    engine_hits = 0 if machine.blocks is None else machine.blocks.hits
    return fingerprint, engine_hits


class TestClosedBlobIdentity:
    def test_virtualized_blob_identity_and_digest(self):
        on, hits_on = _closed_blob_run(blocks=True)
        off, hits_off = _closed_blob_run(blocks=False)
        # The engine genuinely engaged under virtualization...
        assert hits_on > 0
        assert hits_off == 0
        # ...and was architecturally invisible, down to the checkpoint
        # digest.
        assert on == off
