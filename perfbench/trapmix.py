"""Trap-mix workloads: the Fig. 12 Memcached op stream, one closed-loop client.

One *op* is one ``ctx.compute`` block followed by one trap-causing kernel
operation, drawn from a seeded stream at the Fig. 12 ``MEMCACHED`` rates.
A *round* builds a fresh platform, boots it to the kernel workload, issues
the whole op stream, and shuts down through SBI system reset.  Every round
of one seed is the same simulation, so the simulated quantities (cycles,
trap counts, the digest) repeat exactly while the host timings vary.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import statistics
from time import perf_counter

from repro.bench.runner import build_system
from repro.os_model.workloads import MEMCACHED
from repro.perf import cache_stats, reset_stats_providers, stats_delta
from repro.spec.platform import VISIONFIVE2

from perfbench.stats import percentile, tail_percentile

#: Op kinds in :meth:`TrapMix.weights` order.
OP_KINDS = tuple(kind for kind, _ in MEMCACHED.weights())

#: Deployment per trap-mix workload (see ``repro.bench.runner``).
CONFIGURATIONS = {
    "memcached-offload": "miralis",
    "memcached-reinject": "miralis-no-offload",
}

#: Ops per round: enough for a per-round p99 with ten ops beyond it, few
#: enough that a run of the slower deployment (~2k ops/s) has dozens of
#: rounds to pick the fast ones from.
OPS_PER_ROUND = 1_000

#: Compute block per op, so the simulated trap rate matches the mix at
#: the platform frequency (as in ``run_trap_mix``).
COMPUTE_PER_OP = max(1, int(VISIONFIVE2.frequency_hz / MEMCACHED.total_rate))

CLEAN_HALT = "sbi system reset"


def op_stream(seed: int, count: int = OPS_PER_ROUND) -> list[str]:
    """The seeded op kinds of one round, drawn at the Memcached rates."""
    kinds, weights = zip(*MEMCACHED.weights())
    return random.Random(seed).choices(kinds, weights=weights, k=count)


def stats_digest(stats, cycles: float) -> str:
    """sha256 over a machine's deterministic trap accounting."""
    doc = {
        "trap_counts": dict(sorted(stats.trap_counts.items())),
        "handler_counts": dict(sorted(stats.handler_counts.items())),
        "world_switches": stats.world_switches,
        "fastpath_hits": stats.fastpath_hits,
        "firmware_emulations": stats.firmware_emulations,
        "cycles": repr(float(cycles)),
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


@dataclasses.dataclass
class Round:
    """Everything one round measured."""

    setup_s: float = 0.0
    #: Factor from host seconds to seconds at the reference pace
    #: (:mod:`perfbench.pace`), from readings taken around the round.
    pace: float = 1.0
    #: Host seconds per op, in issue order (emptied by :meth:`summarize`).
    latencies: list = dataclasses.field(default_factory=list)
    #: Simulated cycles of each op's trap-causing call, compute excluded
    #: (emptied by :meth:`summarize`).
    call_cycles: list = dataclasses.field(default_factory=list)
    completed: int = 0
    #: Simulated cycles and trap accounting over the timed ops.
    cycles: float = 0.0
    traps: int = 0
    world_switches: int = 0
    fastpath_hits: int = 0
    halt_reason: str = ""
    unexpected_traps: tuple = ()
    digest: str = ""
    #: Cache hit/miss counters over the timed ops (``repro.perf``).
    cache: dict = dataclasses.field(default_factory=dict)
    #: Set by :meth:`summarize`: total, median and tail (at ``tail_p``)
    #: op seconds, and per op kind the median host seconds and the mean
    #: simulated ns of the trap-causing call.
    op_s: float = 0.0
    p50_s: float = 0.0
    tail_p: float = 0.0
    tail_s: float = 0.0
    kind_p50_s: dict = dataclasses.field(default_factory=dict)
    kind_sim_ns: dict = dataclasses.field(default_factory=dict)

    def summarize(self, kinds: list[str]) -> None:
        """Reduce the per-op lists to summaries and drop them, so a run's
        memory does not grow with its length."""
        ordered = sorted(self.latencies)
        self.op_s = sum(ordered)
        self.p50_s = statistics.median(ordered)
        self.tail_p = tail_percentile(len(ordered))
        self.tail_s = percentile(ordered, self.tail_p)
        to_ns = 1e9 / VISIONFIVE2.frequency_hz
        for kind in OP_KINDS:
            seconds = [t for k, t in zip(kinds, self.latencies) if k == kind]
            cycles = [c for k, c in zip(kinds, self.call_cycles) if k == kind]
            self.kind_p50_s[kind] = (statistics.median(seconds)
                                     if seconds else 0.0)
            self.kind_sim_ns[kind] = (statistics.mean(cycles) * to_ns
                                      if cycles else 0.0)
        self.latencies = []
        self.call_cycles = []


def _cache_counters(machine) -> dict:
    counters = cache_stats()
    counters.update(cache_stats(owner=machine))
    return counters


def _issue(kernel, ctx, kind: str, misaligned_address: int,
           ipi_mask: int) -> None:
    if kind == "time":
        kernel.read_time(ctx)
    elif kind == "timer":
        kernel.arm_timer_tick(ctx)
    elif kind == "ipi":
        kernel.sbi_send_ipi(ctx, ipi_mask, 0)
    elif kind == "rfence":
        kernel.sbi_remote_fence_i(ctx, ipi_mask, 0)
    elif kind == "misaligned":
        ctx.load(misaligned_address, size=4)
    else:
        raise ValueError(f"unknown op kind {kind!r}")


def run_round(workload: str, kinds: list[str], recorder=None) -> Round:
    """Build, boot, and drive one round of ``kinds`` under ``workload``.

    ``recorder`` (a :class:`perfbench.spans.SpanRecorder`) is switched on
    around each timed op only, so set-up and shutdown stay untraced.
    """
    result = Round()
    started = perf_counter()

    def guest(kernel, ctx) -> None:
        machine = kernel.machine
        stats = machine.stats
        result.setup_s = perf_counter() - started
        misaligned_address = kernel.region.base + 0x8000 + 1
        ipi_mask = 1 << (machine.config.num_harts - 1)
        latencies = result.latencies
        call_cycles = result.call_cycles
        start_cycles = machine.cycles
        start_traps = stats.total_traps
        start_hits = stats.fastpath_hits
        start_switches = stats.world_switches
        before = _cache_counters(machine)
        for kind in kinds:
            if recorder is not None:
                recorder.begin_op()
            t0 = perf_counter()
            ctx.compute(COMPUTE_PER_OP)
            c0 = machine.cycles
            _issue(kernel, ctx, kind, misaligned_address, ipi_mask)
            c1 = machine.cycles
            t1 = perf_counter()
            if recorder is not None:
                recorder.end_op(t1 - t0)
            latencies.append(t1 - t0)
            call_cycles.append(c1 - c0)
            result.completed += 1
        result.cycles = machine.cycles - start_cycles
        result.traps = stats.total_traps - start_traps
        result.fastpath_hits = stats.fastpath_hits - start_hits
        result.world_switches = stats.world_switches - start_switches
        result.cache = stats_delta(_cache_counters(machine), before)

    system = build_system(CONFIGURATIONS[workload], VISIONFIVE2, guest,
                          keep_trap_events=False)
    result.halt_reason = system.run()
    result.unexpected_traps = tuple(system.kernel.unexpected_traps)
    result.digest = stats_digest(system.machine.stats, system.machine.cycles)
    release_machines()
    return result


def release_machines() -> None:
    """Free the machines of a finished round or cell (outside any timing).

    The ``hart.blocks`` stats provider's closure holds its engine, and the
    engine its machine, so the provider's weak reference to the machine
    never clears: unless the owned providers are dropped, every machine a
    run builds stays alive and peak memory grows with run length.  The
    collection then frees the machine's reference cycles now, so the next
    round or cell starts from the same heap whenever the collector would
    otherwise have run.
    """
    reset_stats_providers()
    gc.collect()


def round_errors(result: Round, kinds: list[str]) -> list[str]:
    """Why a round's outputs are wrong (empty when they are right)."""
    errors = []
    if CLEAN_HALT not in result.halt_reason:
        errors.append(f"halt reason {result.halt_reason!r}")
    if result.unexpected_traps:
        errors.append(f"unexpected kernel traps {result.unexpected_traps}")
    if result.completed != len(kinds):
        errors.append(f"{result.completed} of {len(kinds)} ops completed")
    return errors
