"""Workload generators reproducing the paper's benchmark trap mixes.

§3.4's key observation: VFM overhead on the OS is entirely a function of
how often — and why — the OS traps to M-mode.  Each paper benchmark is
therefore characterized by its *trap mix*: the rates of time-CSR reads,
timer programming, IPIs, remote fences, and misaligned accesses, plus the
compute between them.  The rates below are taken from the paper's
evaluation text (§8.3.2-§8.3.3): CoreMark-Pro ~11k trap/s, Redis up to
272k trap/s, Memcached up to 388-389k trap/s.

Workloads issue *real* operations through the kernel model, so every trap
travels the full path: native firmware, Miralis fast path, or a world
switch into the virtualized firmware — whichever deployment is assembled.
"""

from __future__ import annotations

import dataclasses

from repro.hart.program import GuestContext
from repro.isa import constants as c
from repro.os_model.kernel import KernelProgram


@dataclasses.dataclass(frozen=True)
class TrapMix:
    """A benchmark's M-mode trap profile.

    Rates are per second of simulated time per hart; the generator
    interleaves compute blocks so the simulated rates come out right at
    1 instruction/cycle.
    """

    name: str
    time_reads_per_s: float = 0.0
    timer_sets_per_s: float = 0.0
    ipis_per_s: float = 0.0
    rfences_per_s: float = 0.0
    misaligned_per_s: float = 0.0

    @property
    def total_rate(self) -> float:
        return (
            self.time_reads_per_s
            + self.timer_sets_per_s
            + self.ipis_per_s
            + self.rfences_per_s
            + self.misaligned_per_s
        )

    def weights(self) -> list[tuple[str, float]]:
        return [
            ("time", self.time_reads_per_s),
            ("timer", self.timer_sets_per_s),
            ("ipi", self.ipis_per_s),
            ("rfence", self.rfences_per_s),
            ("misaligned", self.misaligned_per_s),
        ]


# ---------------------------------------------------------------------------
# Paper benchmark profiles (rates from §8.3.2 / §8.3.3)
# ---------------------------------------------------------------------------

# CPU-bound microbenchmark: "The CPU benchmark causes the least traps to
# M-mode, 11k/s" — mostly scheduler-tick timers plus time reads.
COREMARK_PRO = TrapMix(
    "coremark-pro",
    time_reads_per_s=7_000,
    timer_sets_per_s=1_000,
    ipis_per_s=1_500,
    rfences_per_s=500,
    misaligned_per_s=1_000,
)

# Disk I/O: block-layer timestamps dominate ("10.6% overhead on IOzone"
# without offload).
IOZONE = TrapMix(
    "iozone",
    time_reads_per_s=14_000,
    timer_sets_per_s=1_500,
    ipis_per_s=1_000,
    rfences_per_s=300,
    misaligned_per_s=200,
)

# Network latency benchmark: "Memcached causes the most at 388k trap/s" —
# per-packet timestamps plus wakeup IPIs.
MEMCACHED = TrapMix(
    "memcached",
    time_reads_per_s=300_000,
    timer_sets_per_s=30_000,
    ipis_per_s=45_000,
    rfences_per_s=8_000,
    misaligned_per_s=5_000,
)

# Application workloads (Figure 13): "up to 272k trap/s for Redis and
# 389k trap/s for Memcached".
REDIS = TrapMix(
    "redis",
    time_reads_per_s=240_000,
    timer_sets_per_s=24_000,
    ipis_per_s=5_000,
    rfences_per_s=1_500,
    misaligned_per_s=1_500,
)

MEMCACHED_APP = TrapMix(
    "memcached-app",
    time_reads_per_s=340_000,
    timer_sets_per_s=34_000,
    ipis_per_s=10_000,
    rfences_per_s=2_500,
    misaligned_per_s=2_500,
)

MYSQL = TrapMix(
    "mysql",
    time_reads_per_s=42_000,
    timer_sets_per_s=5_000,
    ipis_per_s=2_500,
    rfences_per_s=300,
    misaligned_per_s=200,
)

GCC = TrapMix(
    "gcc",
    time_reads_per_s=4_200,
    timer_sets_per_s=500,
    ipis_per_s=200,
    rfences_per_s=50,
    misaligned_per_s=50,
)

APPLICATION_MIXES = {
    "redis": REDIS,
    "memcached": MEMCACHED_APP,
    "mysql": MYSQL,
    "gcc": GCC,
}

# CoreMark-Pro sub-benchmarks (Figure 10) share the CPU mix with small
# per-workload variations in trap intensity.
COREMARK_PRO_SUITE = {
    name: dataclasses.replace(
        COREMARK_PRO,
        name=f"coremark:{name}",
        time_reads_per_s=COREMARK_PRO.time_reads_per_s * scale,
    )
    for name, scale in (
        ("cjpeg-rose7", 0.8),
        ("core", 0.5),
        ("linear_alg", 0.6),
        ("loops", 0.4),
        ("nnet", 0.7),
        ("parser", 1.4),
        ("radix2", 0.6),
        ("sha", 0.9),
        ("zip", 1.2),
    )
}

# RV8 benchmark suite (Figure 14): compute-heavy enclave workloads with
# relative durations loosely matching the Keystone paper's mix.
RV8_SUITE = {
    "aes": 40_000,
    "dhrystone": 25_000,
    "miniz": 55_000,
    "norx": 35_000,
    "primes": 60_000,
    "qsort": 45_000,
    "rsa": 70_000,
    "sha512": 30_000,
}


@dataclasses.dataclass
class WorkloadResult:
    """Measurements collected by a trap-mix run."""

    name: str
    operations: int = 0
    useful_instructions: int = 0
    simulated_seconds: float = 0.0
    start_cycles: float = 0.0
    end_cycles: float = 0.0
    #: Traps and world switches within the measured window only (boot-time
    #: activity excluded).
    traps: int = 0
    world_switches: int = 0

    @property
    def total_cycles(self) -> float:
        return self.end_cycles - self.start_cycles

    def throughput(self, frequency_hz: int) -> float:
        """Useful instructions per second of simulated time."""
        if self.total_cycles == 0:
            return 0.0
        return self.useful_instructions * frequency_hz / self.total_cycles


def run_trap_mix(
    kernel: KernelProgram,
    ctx: GuestContext,
    mix: TrapMix,
    operations: int = 1_000,
) -> WorkloadResult:
    """Drive the kernel through ``operations`` trap-causing events.

    Between events the workload computes for the number of instructions
    that yields the mix's trap rate at the platform frequency.  Events are
    issued deterministically in proportion to their weights (largest
    remaining quota first), so runs are reproducible.
    """
    machine = kernel.machine
    frequency = machine.config.frequency_hz
    total_rate = mix.total_rate
    if total_rate <= 0:
        raise ValueError(f"trap mix {mix.name} has no events")
    compute_per_event = max(1, int(frequency / total_rate))
    weights = [(kind, rate) for kind, rate in mix.weights() if rate > 0]
    quotas = {kind: 0.0 for kind, _ in weights}
    result = WorkloadResult(name=mix.name, start_cycles=machine.cycles)
    start_traps = machine.stats.total_traps
    start_switches = machine.stats.world_switches
    misaligned_buffer = kernel.region.base + 0x8000

    for _ in range(operations):
        ctx.compute(compute_per_event)
        result.useful_instructions += compute_per_event
        # Pick the most-starved event kind.
        for kind, rate in weights:
            quotas[kind] += rate / total_rate
        kind = max(quotas, key=lambda k: quotas[k])
        quotas[kind] -= 1.0
        if kind == "time":
            kernel.read_time(ctx)
        elif kind == "timer":
            kernel.arm_timer_tick(ctx)
        elif kind == "ipi":
            kernel.sbi_send_ipi(ctx, 1 << (machine.config.num_harts - 1), 0)
        elif kind == "rfence":
            kernel.sbi_remote_fence_i(ctx, 1 << (machine.config.num_harts - 1), 0)
        elif kind == "misaligned":
            ctx.load(misaligned_buffer + 1, size=4)
        result.operations += 1
    result.end_cycles = machine.cycles
    result.simulated_seconds = result.total_cycles / frequency
    result.traps = machine.stats.total_traps - start_traps
    result.world_switches = machine.stats.world_switches - start_switches
    return result


# ---------------------------------------------------------------------------
# Cross-hart SMP workloads (deterministic scheduler required for real
# interleaving; they also run — degenerately — under the legacy
# synchronous-servicing flow, which services remote harts on the
# sender's stack)
# ---------------------------------------------------------------------------

#: SBI all-harts mask base (-1 as u64).
ALL_HARTS = (1 << 64) - 1

#: Delivery points a hart polls for an awaited interrupt before giving
#: up, so a dropped interrupt fails the workload instead of hanging it.
SPIN_LIMIT = 2_000
#: Ping-pong rounds over every secondary hart.
PINGPONG_ROUNDS = 4
#: All-harts ``fence.i`` requests per hart in the remote-fence storm.
RFENCE_ROUNDS = 12
#: Timer deadlines each hart arms in the contention workload, and the
#: distance of each in mtime ticks.
CONTENTION_TICKS = 3
CONTENTION_INTERVAL_MTIME = 60


def smp_ipi_pingpong():
    """IPI ping-pong: hart 0 pings each secondary in turn; the
    secondary's SSI handler answers with an IPI back to hart 0
    (``kernel.ipi_pong_target``).  Exercises the IPI fast path in both
    directions across every hart pair involving the boot hart.

    Returns ``(primary, secondary)`` workloads for the system builders.
    """

    def primary(kernel: KernelProgram, ctx: GuestContext) -> None:
        kernel.ipi_pong_target = 0
        num_harts = kernel.machine.config.num_harts
        for _ in range(PINGPONG_ROUNDS):
            for target in range(1, num_harts):
                before = kernel.ssi_by_hart[0]
                kernel.sbi_send_ipi(ctx, 1 << target, 0)
                spins = 0
                # Delivery points until the pong lands.
                while kernel.ssi_by_hart[0] == before and spins < SPIN_LIMIT:
                    ctx.compute(50)
                    spins += 1
        kernel.ipi_pong_target = None

    return primary, None


def smp_rfence_storm():
    """Remote-fence storm: every hart hammers all-harts ``fence.i``
    requests concurrently, so each hart both sends fences and services
    the resulting IPIs from its siblings."""

    def body(kernel: KernelProgram, ctx: GuestContext) -> None:
        for _ in range(RFENCE_ROUNDS):
            kernel.sbi_remote_fence_i(ctx, 0, ALL_HARTS)
            ctx.compute(200)  # delivery points for incoming fence IPIs

    return body, body


def smp_timer_contention():
    """Timer contention: each hart arms its own short deadlines against
    the shared mtime and busy-waits for its tick, so per-hart comparators
    race on a common clock."""

    def body(kernel: KernelProgram, ctx: GuestContext) -> None:
        hartid = ctx.hart.hartid
        for _ in range(CONTENTION_TICKS):
            before = kernel.ticks_by_hart[hartid]
            now = kernel.read_time(ctx)
            ctx.csrs(c.CSR_SIE, c.MIP_STIP)
            kernel.sbi_set_timer(ctx, now + CONTENTION_INTERVAL_MTIME)
            spins = 0
            while kernel.ticks_by_hart[hartid] == before and spins < SPIN_LIMIT:
                ctx.compute(100)
                spins += 1

    return body, body


#: Named SMP workload factories for the CLI and the scaling benchmark.
#: Each factory returns ``(primary, secondary)`` workload callables.
SMP_WORKLOADS = {
    "ipi-pingpong": smp_ipi_pingpong,
    "rfence-storm": smp_rfence_storm,
    "timer-contention": smp_timer_contention,
}


#: Instructions between scheduler ticks in :func:`run_compute_workload`.
COMPUTE_CHUNK = 50_000


def run_compute_workload(
    kernel: KernelProgram,
    ctx: GuestContext,
    instructions: int,
) -> WorkloadResult:
    """A pure-compute workload (GCC-style), with only scheduler ticks."""
    machine = kernel.machine
    result = WorkloadResult(name="compute", start_cycles=machine.cycles)
    remaining = instructions
    while remaining > 0:
        block = min(COMPUTE_CHUNK, remaining)
        ctx.compute(block)
        result.useful_instructions += block
        remaining -= block
        kernel.arm_timer_tick(ctx)
        result.operations += 1
    result.end_cycles = machine.cycles
    result.simulated_seconds = result.total_cycles / machine.config.frequency_hz
    return result
