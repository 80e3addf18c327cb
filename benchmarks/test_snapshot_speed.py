"""Phase-checkpoint benchmark: checkpoint restore vs. simulated boot-to-phase.

A phased chaos cell that misses the per-process checkpoint cache
simulates the fault-free boot to kernel entry and captures it there;
every later cell for the same firmware in that process restores the
capture instead.  The figure of merit is **time-to-phase**: how long
until the machine stands at the kernel-entry boundary, injector
armable.  The ≥2x floor is asserted there, where the checkpoint layer
does its work; total cell wall-clock improves by the boot share of the
run, which the post-phase fault workload dominates by design (also
recorded, no floor asserted).

The non-negotiable half of the contract is equivalence: a campaign whose
every cell misses the cache (it is cleared before each cell) and one
whose cells hit it must produce **byte-identical** canonical aggregates.

Run directly (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/test_snapshot_speed.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import once
from repro.campaign import (
    canonical_json,
    chaos_cells,
    merge_campaign,
    run_campaign,
)
from repro.faults.chaos import (
    _WARM_BOOTS,
    _build_sbi_system,
    capture_kernel_entry,
)
from repro.snapshot import restore
from repro.spec.platform import VISIONFIVE2

ITERATIONS = 30
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_snapshot.json"


def _boot_to_phase():
    """What a cache-miss cell does: simulate the boot, capture there."""
    system, _ = _build_sbi_system(VISIONFIVE2, "opensbi")
    checkpoint = capture_kernel_entry(system)
    assert checkpoint is not None
    return checkpoint


def _restore_to_phase(checkpoint) -> None:
    """What a cache-hit cell does."""
    system, _ = _build_sbi_system(VISIONFIVE2, "opensbi")
    restore(system.machine, checkpoint)


def _time_to_phase() -> dict:
    checkpoint = _boot_to_phase()

    start = time.perf_counter()
    for _ in range(ITERATIONS):
        _boot_to_phase()
    boot = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(ITERATIONS):
        _restore_to_phase(checkpoint)
    restored = time.perf_counter() - start

    return {
        "iterations": ITERATIONS,
        "boot_ms_per_run": round(boot / ITERATIONS * 1000, 3),
        "restore_ms_per_run": round(restored / ITERATIONS * 1000, 3),
        "speedup": round(boot / restored, 2),
    }


def _clear_cache(_result) -> None:
    _WARM_BOOTS.clear()


def _campaign_pair() -> dict:
    cells = chaos_cells(firmwares=("opensbi",),
                        plans=("none", "csr-chaos", "transient-mmio"),
                        seeds=(0, 1), phase="kernel-entry")
    runs = {}
    for mode in ("miss", "hit"):
        _WARM_BOOTS.clear()
        # Serial cells report through ``progress`` as each one ends, so
        # clearing there makes the next cell miss too.
        start = time.perf_counter()
        campaign = run_campaign(
            cells, workers=1, timeout=120.0,
            progress=_clear_cache if mode == "miss" else None)
        wall = time.perf_counter() - start
        runs[mode] = {
            "cells": campaign.counts()["total"],
            "wall_seconds": round(wall, 4),
            "canonical": canonical_json(merge_campaign(campaign)),
        }
    return runs


def test_snapshot_phase_cache(benchmark, show):
    results = once(benchmark, lambda: {
        "phase": _time_to_phase(),
        "campaign": _campaign_pair(),
    })

    phase = results["phase"]
    assert phase["speedup"] >= 2.0, phase

    campaign = results["campaign"]
    assert campaign["hit"]["canonical"] == campaign["miss"]["canonical"]
    campaign_speedup = round(campaign["miss"]["wall_seconds"]
                             / campaign["hit"]["wall_seconds"], 2)

    report = {
        "benchmark": "snapshot-phase-cache",
        "host_cpus": os.cpu_count(),
        "note": (
            "A phased chaos cell that misses the per-process checkpoint "
            "cache boots to kernel entry and captures it; a hit restores "
            "the capture. The >=2x floor is asserted on time-to-phase "
            "(the work the checkpoint layer replaces); whole-cell "
            "wall-clock improves by the boot's share of the run, which "
            "the post-phase fault workload dominates. All-miss and "
            "cache-hit campaign aggregates are byte-identical (asserted)."
        ),
        "time_to_phase": phase,
        "campaign": {
            "matrix": "chaos opensbi x (none, csr-chaos, transient-mmio) "
                      "x seeds(0,1), phase=kernel-entry",
            "miss_wall_seconds": campaign["miss"]["wall_seconds"],
            "hit_wall_seconds": campaign["hit"]["wall_seconds"],
            "speedup": campaign_speedup,
            "aggregates_identical": True,
        },
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    show("\n".join([
        f"snapshot phase cache -> {RESULT_PATH.name}",
        "  time-to-phase: boot {boot_ms_per_run:.2f} ms, restore "
        "{restore_ms_per_run:.2f} ms (x{speedup})".format(**phase),
        f"  campaign ({campaign['miss']['cells']} cells): all-miss "
        f"{campaign['miss']['wall_seconds']:.2f}s, cache-hit "
        f"{campaign['hit']['wall_seconds']:.2f}s (x{campaign_speedup}, "
        "aggregates byte-identical)",
    ]))
