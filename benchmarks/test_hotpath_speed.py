"""Hot-path throughput benchmark: interpreter steps/sec with the perf layer.

Boots the virtualized deployment on a trap-heavy mix three ways — plain,
with the trace subsystem recording, and with a coverage map attached.
Emits ``BENCH_hotpath.json`` at the repo root so CI and CHANGES.md can
track interpreter throughput (and the tracing/coverage overhead budgets)
over time.

Run directly (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/test_hotpath_speed.py -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from benchmarks.conftest import once
from repro import perf
from repro.os_model.workloads import TrapMix, run_trap_mix
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized

HOTPATH_MIX = TrapMix(
    "hotpath",
    time_reads_per_s=5_000,
    timer_sets_per_s=1_000,
    ipis_per_s=500,
    rfences_per_s=300,
    misaligned_per_s=100,
)
OPERATIONS = 400
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


def _boot_and_measure(traced: bool = False, covered: bool = False) -> dict:
    def workload(kernel, ctx):
        run_trap_mix(kernel, ctx, HOTPATH_MIX, operations=OPERATIONS)

    system = build_virtualized(
        VISIONFIVE2, workload=workload, keep_trap_events=False
    )
    if traced:
        from repro.trace import Tracer

        system.machine.tracer = Tracer()
    if covered:
        from repro.coverage import CoverageMap

        system.machine.coverage = CoverageMap()
    meter = perf.StepMeter()
    with meter:
        halt = system.run()
    meter.add_steps(sum(hart.instret for hart in system.machine.harts))
    return {
        "halt": halt,
        "steps": meter.steps,
        "wall_seconds": meter.elapsed,
        "steps_per_second": meter.steps_per_second,
        "traps": system.machine.stats.total_traps,
        "fastpath_hits": system.machine.stats.fastpath_hits,
    }


#: Interleaved rounds of (plain, traced, covered) samples; the overhead
#: budgets are checked on the median of the per-round ratios.
ROUNDS = 11
#: Wall-clock length of one sample: enough back-to-back boots that timer
#: resolution and scheduling jitter stay well below the 10% budgets (one
#: boot is ~25 ms).
SAMPLE_SECONDS = 0.3


def _sample(repeats: int, **variant) -> dict:
    """``repeats`` back-to-back boots of one variant, as one sample."""
    runs = [_boot_and_measure(**variant) for _ in range(repeats)]
    steps = sum(run["steps"] for run in runs)
    seconds = sum(run["wall_seconds"] for run in runs)
    return dict(runs[0], steps_per_second=steps / seconds)


def _median(values: list) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_hotpath_steps_per_second(benchmark, show):
    variants = {"plain": {}, "traced": {"traced": True},
                "covered": {"covered": True}}

    def run_all():
        perf.clear_caches()
        for variant in variants.values():
            _boot_and_measure(**variant)  # warm the caches
        one_boot = _boot_and_measure()["wall_seconds"]
        repeats = max(1, math.ceil(SAMPLE_SECONDS / one_boot))
        # Interleaving the variants round by round exposes them all to
        # the same machine conditions, and rotating the order within a
        # round keeps any one variant from always running first.  Each
        # round yields one paired ratio per budget; the median of the
        # ratios discards the rounds a neighbour's load distorted.
        rounds = []
        for index in range(ROUNDS):
            names = list(variants)
            names = names[index % 3:] + names[:index % 3]
            rounds.append({name: _sample(repeats, **variants[name])
                           for name in names})
        return rounds, repeats

    rounds, repeats = once(benchmark, run_all)
    plain, traced, covered = (rounds[0][name] for name in variants)
    speed = {name: _median([r[name]["steps_per_second"] for r in rounds])
             for name in variants}
    overhead = _median([1 - r["traced"]["steps_per_second"]
                        / r["plain"]["steps_per_second"] for r in rounds])
    cov_overhead = _median([1 - r["covered"]["steps_per_second"]
                            / r["plain"]["steps_per_second"]
                            for r in rounds])

    # Same simulation either way — the tracer and coverage map are
    # passive observers.
    assert plain["halt"] == traced["halt"]
    assert plain["steps"] == traced["steps"]
    assert plain["traps"] == traced["traps"]
    assert covered["halt"] == plain["halt"]
    assert covered["steps"] == plain["steps"]
    assert covered["traps"] == plain["traps"]
    assert speed["plain"] > 0

    # The tracing budget from the tracing PR: attaching a tracer may
    # cost at most 10% of the plain run's steps/sec.  Same budget for
    # coverage: the plain baseline runs with machine.coverage = None (the
    # one-branch disabled path), and even *enabling* the map — which
    # pays only per trap, never per step — must stay within 10% of it.
    report = {
        "benchmark": "hotpath",
        "platform": VISIONFIVE2.name,
        "mix": HOTPATH_MIX.name,
        "operations": OPERATIONS,
        "steps": plain["steps"],
        "steps_per_second": round(speed["plain"]),
        "steps_per_second_traced": round(speed["traced"]),
        "trace_overhead": round(max(overhead, 0.0), 3),
        "steps_per_second_covered": round(speed["covered"]),
        "coverage_overhead": round(max(cov_overhead, 0.0), 3),
        "wall_seconds": round(plain["wall_seconds"], 4),
        "rounds": ROUNDS,
        "boots_per_sample": repeats,
        "traps": plain["traps"],
        "fastpath_hits": plain["fastpath_hits"],
    }
    assert report["trace_overhead"] < 0.10, (
        f"tracing costs {report['trace_overhead']:.1%} of steps/sec "
        f"(budget: <10%)"
    )
    assert report["coverage_overhead"] < 0.10, (
        f"coverage costs {report['coverage_overhead']:.1%} of steps/sec "
        f"(budget: <10%)"
    )
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    show(
        "hotpath: {steps_per_second:,} steps/sec, "
        "{steps_per_second_traced:,} traced "
        "({trace_overhead:.1%} overhead), {steps_per_second_covered:,} "
        "covered ({coverage_overhead:.1%} overhead) -> {path}".format(
            path=RESULT_PATH.name, **report
        )
    )
