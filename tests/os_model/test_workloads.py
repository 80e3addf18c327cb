"""Workload generators and the boot-flow model."""

import pytest

from repro.os_model.bootflow import BOOT_PHASES, DOMINANT_CAUSES, run_boot_flow
from repro.os_model.workloads import (
    APPLICATION_MIXES,
    COREMARK_PRO,
    COREMARK_PRO_SUITE,
    MEMCACHED,
    REDIS,
    RV8_SUITE,
    TrapMix,
    run_compute_workload,
    run_trap_mix,
)
from repro.spec.platform import VISIONFIVE2
from repro.system import build_native, build_virtualized


class TestTrapMix:
    def test_total_rate(self):
        mix = TrapMix("t", time_reads_per_s=100, ipis_per_s=50)
        assert mix.total_rate == 150

    def test_paper_rates(self):
        """The rates from §8.3.2/§8.3.3 are encoded in the profiles."""
        assert 10_000 <= COREMARK_PRO.total_rate <= 12_000  # "11k/s"
        assert 380_000 <= MEMCACHED.total_rate <= 396_000  # "388k trap/s"
        assert 265_000 <= REDIS.total_rate <= 280_000  # "272k trap/s"

    def test_zero_rate_rejected(self):
        def workload(kernel, ctx):
            run_trap_mix(kernel, ctx, TrapMix("empty"), operations=1)

        system = build_native(VISIONFIVE2, workload=workload)
        with pytest.raises(ValueError):
            system.run()

    def test_suite_membership(self):
        assert len(COREMARK_PRO_SUITE) == 9  # the CoreMark-Pro sub-benchmarks
        assert set(APPLICATION_MIXES) == {"redis", "memcached", "mysql", "gcc"}
        assert len(RV8_SUITE) == 8


class TestRunTrapMix:
    def _run(self, mix, operations=60, virtualized=False, **kwargs):
        box = {}

        def workload(kernel, ctx):
            box["result"] = run_trap_mix(kernel, ctx, mix,
                                         operations=operations, **kwargs)

        builder = build_virtualized if virtualized else build_native
        system = builder(VISIONFIVE2, workload=workload)
        system.run()
        return system, box["result"]

    def test_operations_counted(self):
        _, result = self._run(COREMARK_PRO)
        assert result.operations == 60
        assert result.useful_instructions > 0
        assert result.simulated_seconds > 0

    def test_trap_rate_matches_mix(self):
        system, result = self._run(COREMARK_PRO, operations=120)
        achieved = result.operations / result.simulated_seconds
        # Within 2x of the nominal rate (overheads shift it slightly).
        assert COREMARK_PRO.total_rate / 2 <= achieved <= COREMARK_PRO.total_rate * 2

    def test_event_mix_proportions(self):
        system, result = self._run(COREMARK_PRO, operations=120)
        details = system.machine.stats.detail_counts()
        time_reads = details.get("emulate:time-read", 0)
        # time reads dominate the CPU mix (7k of 11k)
        assert time_reads >= 120 * 0.5

    def test_throughput_helper(self):
        _, result = self._run(COREMARK_PRO)
        assert result.throughput(VISIONFIVE2.frequency_hz) > 0

    def test_works_virtualized(self):
        system, result = self._run(REDIS, virtualized=True)
        assert result.operations == 60
        assert system.miralis.offload.hits  # fast paths were used


class TestComputeWorkload:
    def test_runs_to_completion(self):
        box = {}

        def workload(kernel, ctx):
            box["result"] = run_compute_workload(kernel, ctx, 200_000)

        system = build_native(VISIONFIVE2, workload=workload)
        system.run()
        assert box["result"].useful_instructions == 200_000


class TestBootFlow:
    def test_phases_cover_48_seconds(self):
        assert sum(phase.duration_s for phase in BOOT_PHASES) == 48.0

    def test_boot_statistics(self):
        box = {}

        def workload(kernel, ctx):
            box["result"] = run_boot_flow(kernel, ctx, scale=0.004)

        system = build_native(VISIONFIVE2, workload=workload)
        system.run()
        result = box["result"]
        assert result.phases == ["bootloader", "kernel-init", "services", "idle"]
        assert result.total_traps > 50
        # §3.4: thousands of traps per second during boot.
        assert result.trap_rate_per_s > 1_000

    def test_dominant_causes_cover_nearly_all_traps(self):
        """Figure 3: five causes account for ~99.98% of traps."""
        def workload(kernel, ctx):
            run_boot_flow(kernel, ctx, scale=0.004)

        system = build_native(VISIONFIVE2, workload=workload)
        system.run()
        details = system.machine.stats.detail_counts()
        dominant = sum(
            count for detail, count in details.items()
            if any(cause in detail for cause in
                   ("time-read", "sbi:timer", "sbi:ipi", "sbi:rfence",
                    "misaligned", "irq:"))
        )
        total = sum(details.values())
        assert dominant / total > 0.98

    def test_offload_slashes_world_switches(self):
        """§3.4: offload cuts boot world switches to ~1/s."""
        def workload(kernel, ctx):
            run_boot_flow(kernel, ctx, scale=0.004)

        with_offload = build_virtualized(VISIONFIVE2, workload=workload)
        with_offload.run()
        without = build_virtualized(VISIONFIVE2, workload=workload,
                                    offload=False)
        without.run()
        assert with_offload.machine.stats.world_switches < \
            without.machine.stats.world_switches / 20
