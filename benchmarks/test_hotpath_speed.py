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


def test_hotpath_steps_per_second(benchmark, show):
    def run_all():
        perf.clear_caches()
        # Wall-clock throughput is noisy at this run length; best-of-N
        # is the stable estimator (the fastest run has the least noise),
        # and interleaving the variants round-by-round exposes them all
        # to the same machine conditions so the overhead ratios are not
        # artifacts of load drift between measurement blocks.
        runs = {"plain": [], "traced": [], "covered": []}
        for _ in range(5):
            runs["plain"].append(_boot_and_measure())
            runs["traced"].append(_boot_and_measure(traced=True))
            runs["covered"].append(_boot_and_measure(covered=True))
        best = {
            name: max(samples, key=lambda run: run["steps_per_second"])
            for name, samples in runs.items()
        }
        return best["plain"], best["traced"], best["covered"]

    plain, traced, covered = once(benchmark, run_all)

    # Same simulation either way — the tracer and coverage map are
    # passive observers.
    assert plain["halt"] == traced["halt"]
    assert plain["steps"] == traced["steps"]
    assert plain["traps"] == traced["traps"]
    assert covered["halt"] == plain["halt"]
    assert covered["steps"] == plain["steps"]
    assert covered["traps"] == plain["traps"]
    assert plain["steps_per_second"] > 0

    # The tracing-off budget from the tracing PR: attaching a tracer may
    # cost, but the disabled path (plain run, tracer None) must stay
    # within 10% of the recorded baseline — checked by CI against the
    # committed BENCH_hotpath.json.
    overhead = 1 - traced["steps_per_second"] / plain["steps_per_second"]
    # Same budget for coverage: the plain baseline runs with
    # machine.coverage = None (the one-branch disabled path), and even
    # *enabling* the map — which pays only per trap, never per step —
    # must stay within 10% of it.
    cov_overhead = 1 - covered["steps_per_second"] / plain["steps_per_second"]

    report = {
        "benchmark": "hotpath",
        "platform": VISIONFIVE2.name,
        "mix": HOTPATH_MIX.name,
        "operations": OPERATIONS,
        "steps": plain["steps"],
        "steps_per_second": round(plain["steps_per_second"]),
        "steps_per_second_traced": round(traced["steps_per_second"]),
        "trace_overhead": round(max(overhead, 0.0), 3),
        "steps_per_second_covered": round(covered["steps_per_second"]),
        "coverage_overhead": round(max(cov_overhead, 0.0), 3),
        "wall_seconds": round(plain["wall_seconds"], 4),
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
