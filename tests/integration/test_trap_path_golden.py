"""Golden trap accounting: the host-side trap path must not move a simulated bit.

Each scenario runs a fixed simulation and hashes everything the trap path
accounts for: the trap, handler and detail histograms, the world-switch,
fast-path and firmware-emulation counters, the exact float of
``machine.cycles`` and the final ``mtime``.  The digests were recorded
before the trap path was optimised for host time; any change to them means
a simulator-only change altered the modelled machine.

The Memcached scenarios issue the same seeded op stream the benchmark's
trap-mix workloads use (a ``ctx.compute`` block, then one op drawn at the
Fig. 12 ``MEMCACHED`` rates), driven through ``build_system`` directly.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.bench.runner import build_system
from repro.firmware.opensbi import OpenSbiFirmware
from repro.os_model.bootflow import run_boot_flow
from repro.os_model.workloads import MEMCACHED
from repro.spec.platform import VISIONFIVE2

MEMCACHED_OPS = 300
MEMCACHED_SEED = 2
BOOT_SCALE = 0.004


def accounting_digest(machine) -> str:
    stats = machine.stats
    doc = {
        "trap_counts": sorted(stats.trap_counts.items()),
        "handler_counts": sorted(stats.handler_counts.items()),
        "detail_counts": sorted(stats.detail_counts().items()),
        "world_switches": stats.world_switches,
        "fastpath_hits": stats.fastpath_hits,
        "firmware_emulations": stats.firmware_emulations,
        "cycles": repr(machine.cycles),
        "mtime": machine.read_mtime(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _memcached_workload(kernel, ctx) -> None:
    kinds, weights = zip(*MEMCACHED.weights())
    stream = random.Random(MEMCACHED_SEED).choices(
        kinds, weights=weights, k=MEMCACHED_OPS
    )
    compute = max(1, int(VISIONFIVE2.frequency_hz / MEMCACHED.total_rate))
    misaligned = kernel.region.base + 0x8000 + 1
    ipi_mask = 1 << (kernel.machine.config.num_harts - 1)
    for kind in stream:
        ctx.compute(compute)
        if kind == "time":
            kernel.read_time(ctx)
        elif kind == "timer":
            kernel.arm_timer_tick(ctx)
        elif kind == "ipi":
            kernel.sbi_send_ipi(ctx, ipi_mask, 0)
        elif kind == "rfence":
            kernel.sbi_remote_fence_i(ctx, ipi_mask, 0)
        else:
            assert kind == "misaligned"
            ctx.load(misaligned, size=4)


def _boot_workload(kernel, ctx) -> None:
    run_boot_flow(kernel, ctx, scale=BOOT_SCALE)


OPENSBI = {"firmware_class": OpenSbiFirmware}
OPENSBI_4HARTS = {"firmware_class": OpenSbiFirmware, "start_secondaries": True}

#: name -> (deployment, workload, builder kwargs, run under the SMP scheduler)
SCENARIOS = {
    "memcached-miralis": ("miralis", _memcached_workload, {}, False),
    "memcached-miralis-no-offload": (
        "miralis-no-offload", _memcached_workload, {}, False,
    ),
    "opensbi-boot-miralis": ("miralis", _boot_workload, OPENSBI, False),
    "opensbi-boot-native": ("native", _boot_workload, OPENSBI, False),
    # All four harts started: IPIs wake parked harts from the sender's
    # stack, or interleave under the SMP scheduler.
    "opensbi-boot-miralis-4harts": ("miralis", _boot_workload, OPENSBI_4HARTS, False),
    "opensbi-boot-miralis-smp": ("miralis", _boot_workload, OPENSBI_4HARTS, True),
}

GOLDEN = {
    "memcached-miralis": "65c4912927222013f670a9867a745d2938718ebc8730f09ea58671166e41b31d",
    "memcached-miralis-no-offload": "e0df37a4b3677da3c10e0fd2b02a7dac5977d80ecd517717a5d3ca941b164dca",
    "opensbi-boot-miralis": "6634f51e52e94bc81359fafd2b21facab32ebe0db034c20abdd28582391a5819",
    "opensbi-boot-native": "a8dedbecf5f5c5e0673d047feea63e4e645e5e6880438aa78ac27b82a4350ebe",
    "opensbi-boot-miralis-4harts": "7cf233e4c9d5aa0ae13d30af608d47004901ae3f4a47d95740725dee3892854d",
    "opensbi-boot-miralis-smp": "ba0e38d0ad1e0be1f67078b720bac23dea3381e04cd6b87914f7456b90d05d6f",
}


def run_scenario(name: str):
    configuration, workload, kwargs, smp = SCENARIOS[name]
    system = build_system(configuration, VISIONFIVE2, workload, **kwargs)
    halt = system.run_smp(quantum=50, seed=3, jitter=10) if smp else system.run()
    assert "sbi system reset" in halt
    assert not system.kernel.unexpected_traps
    return system.machine


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trap_accounting_matches_golden(name):
    machine = run_scenario(name)
    assert machine.stats.total_traps > 0
    assert accounting_digest(machine) == GOLDEN[name]
