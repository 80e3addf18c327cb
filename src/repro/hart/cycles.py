"""Cycle cost model.

The simulator charges cycles for guest instructions, traps, MMIO accesses,
and the host work done by firmware and by Miralis.  Parameters are
calibrated per platform so that the microbenchmark costs reported in
Tables 4 and 5 of the paper come out with the right magnitude and, more
importantly, the right *ratios* (emulation vs world switch, fast path vs
no-offload).  Absolute cycle counts on the authors' boards depend on
microarchitectural detail we do not model (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from repro.spec.platform import PlatformConfig


@dataclasses.dataclass(frozen=True)
class CycleModel:
    """Per-platform cost parameters, in CPU cycles.

    Attributes:
        instruction: Cost of one ordinary guest instruction.
        trap_entry: Hardware cost of taking a trap into M-mode (pipeline
            flush, mode switch).  Out-of-order cores pay more.
        trap_entry_s: Cost of taking a trap into S-mode.
        xret: Cost of an ``mret``/``sret``.
        mmio_access: Cost of one uncached MMIO load/store.
        csr_access: Cost of one physical CSR read or write.
        tlb_flush: Cost of an ``sfence.vma`` full flush (paid on every
            world switch, §4.1).
        memory_fence: Cost of a remote fence / fence.i.
        ipi_remote_delivery: Latency of delivering an IPI to a remote hart
            and having it acknowledge (interconnect + remote handler entry),
            excluding the software cost modelled by executed instructions.
    """

    instruction: float = 1.0
    trap_entry: int = 100
    trap_entry_s: int = 60
    xret: int = 40
    mmio_access: int = 25
    csr_access: int = 3
    tlb_flush: int = 380
    memory_fence: int = 150
    ipi_remote_delivery: int = 3000


# The VisionFive 2's U74 cores are in-order dual-issue: cheap traps,
# moderate flush costs.
VISIONFIVE2_CYCLES = CycleModel(
    instruction=1.0,
    trap_entry=100,
    trap_entry_s=60,
    xret=40,
    mmio_access=25,
    csr_access=3,
    tlb_flush=380,
    memory_fence=150,
    ipi_remote_delivery=3000,
)

# The P550 is out-of-order and super-scalar: ordinary instructions retire
# faster (modelled as fractional cost) but traps and TLB flushes cost more,
# which is why the paper measures a *larger* world-switch cost (4098 vs
# 2704 cycles) despite cheaper instruction emulation (271 vs 483).
PREMIER_P550_CYCLES = CycleModel(
    instruction=0.5,
    trap_entry=80,
    trap_entry_s=50,
    xret=40,
    mmio_access=30,
    csr_access=2,
    tlb_flush=1400,
    memory_fence=200,
    ipi_remote_delivery=2500,
)

GENERIC_CYCLES = CycleModel()

_MODELS = {
    "visionfive2": VISIONFIVE2_CYCLES,
    "premier-p550": PREMIER_P550_CYCLES,
}


def cycle_model_for(config: PlatformConfig) -> CycleModel:
    """The cycle model matching a platform (generic model as fallback)."""
    return _MODELS.get(config.name, GENERIC_CYCLES)


@lru_cache(maxsize=None)
def mnemonic_cost_table(model: CycleModel) -> dict[str, float]:
    """Base execution cost per mnemonic for the ones with a surcharge.

    Replaces the if/elif chain on the interpreter's hottest path with one
    dict lookup; mnemonics absent from the table cost ``model.instruction``.
    ``CycleModel`` is a frozen dataclass, so the table is a pure function of
    the model and safe to share.  The per-term additions mirror the original
    incremental ``cost += ...`` chain exactly, preserving float semantics.
    """
    table: dict[str, float] = {}
    for mnemonic in ("csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"):
        table[mnemonic] = model.instruction + model.csr_access
    for mnemonic in ("mret", "sret"):
        table[mnemonic] = model.instruction + model.xret
    table["sfence.vma"] = model.instruction + model.tlb_flush
    for mnemonic in ("fence", "fence.i"):
        table[mnemonic] = model.instruction + model.memory_fence
    return table


# Timebase (mtime ticks per second).  Both boards expose a low-frequency
# timebase compared to the core clock, as is standard on RISC-V.
TIMEBASE_FREQUENCY = 4_000_000


def cycles_to_mtime(cycles: float, frequency_hz: int) -> int:
    """Convert elapsed CPU cycles to mtime ticks."""
    return int(cycles * TIMEBASE_FREQUENCY / frequency_hz)


def mtime_to_cycles(ticks: int, frequency_hz: int) -> int:
    """Convert mtime ticks to CPU cycles."""
    return int(ticks * frequency_hz / TIMEBASE_FREQUENCY)
