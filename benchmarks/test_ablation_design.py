"""Ablations over DESIGN.md's called-out design choices.

* Physical PMP entry count: how many virtual entries survive the
  monitor's reservations (Figure 5's multiplexing budget).
* Policy choice: per-trap overhead of the policy hooks (default vs
  sandbox) on a trap-heavy workload.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import once
from repro.bench.runner import run_workload
from repro.bench.stats import relative
from repro.bench.tables import render_table
from repro.os_model.workloads import REDIS
from repro.policy.sandbox import FirmwareSandboxPolicy
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized

OPERATIONS = 150


class TestPmpEntryBudget:
    def test_virtual_entries_per_physical_count(self, benchmark, show):
        def sweep():
            results = {}
            for count in (8, 16, 32, 64):
                platform = VISIONFIVE2.with_overrides(pmp_count=count)
                system = build_virtualized(platform)
                results[count] = system.miralis.vpmp.virtual_count
            return results

        results = once(benchmark, sweep)
        show(render_table(
            "Ablation: virtual PMP entries by physical entry count "
            "(monitor reserves 2 guards + zero anchor + all-memory)",
            ("physical entries", "virtual entries"),
            [(count, virtual) for count, virtual in results.items()],
        ))
        assert results[8] == 4
        assert results[16] == 12
        # The exposure is capped by repro.core.vpmp.MAX_VIRTUAL_PMP.
        assert results[64] == 16

    def test_too_few_entries_rejected(self, benchmark):
        def attempt():
            platform = VISIONFIVE2.with_overrides(pmp_count=4)
            try:
                build_virtualized(
                    platform,
                    policy=FirmwareSandboxPolicy(),
                )
            except ValueError as error:
                return str(error)
            return None

        message = once(benchmark, attempt)
        assert message and "PMP" in message


class TestPolicyOverhead:
    def test_sandbox_policy_costs_nothing_with_offload(self, benchmark, show):
        """§8.4: 'All benchmarks presented so far use the firmware sandbox
        policy ... with no overhead.'"""

        def run_both():
            default = run_workload("miralis", VISIONFIVE2, mix=REDIS,
                                   operations=OPERATIONS)
            sandbox = run_workload(
                "miralis", VISIONFIVE2, mix=REDIS, operations=OPERATIONS,
                policy_factory=lambda: FirmwareSandboxPolicy(
                    extra_allowed_regions=[(0x1000_0000, 0x100)]
                ),
            )
            return default, sandbox

        default, sandbox = once(benchmark, run_both)
        ratio = relative(sandbox.throughput, default.throughput)
        show(render_table(
            "Ablation: sandbox policy overhead on Redis (Miralis, offload)",
            ("policy", "throughput (instr/s)", "relative"),
            [
                ("default", f"{default.throughput:.3e}", "1.000"),
                ("sandbox", f"{sandbox.throughput:.3e}", f"{ratio:.3f}"),
            ],
        ))
        assert ratio == pytest.approx(1.0, abs=0.02)

    def test_sandbox_scrubbing_cost_without_offload(self, benchmark, show):
        """Without offload every trap crosses the policy's register
        scrubbing; the cost stays moderate."""

        def run_both():
            default = run_workload("miralis-no-offload", VISIONFIVE2,
                                   mix=REDIS, operations=OPERATIONS)
            sandbox = run_workload(
                "miralis-no-offload", VISIONFIVE2, mix=REDIS,
                operations=OPERATIONS,
                policy_factory=lambda: FirmwareSandboxPolicy(
                    extra_allowed_regions=[(0x1000_0000, 0x100)]
                ),
            )
            return default, sandbox

        default, sandbox = once(benchmark, run_both)
        ratio = relative(sandbox.throughput, default.throughput)
        show(render_table(
            "Ablation: sandbox policy overhead on Redis (no-offload)",
            ("policy", "throughput (instr/s)", "relative"),
            [
                ("default", f"{default.throughput:.3e}", "1.000"),
                ("sandbox", f"{sandbox.throughput:.3e}", f"{ratio:.3f}"),
            ],
        ))
        assert ratio > 0.80  # scrubbing costs some, not catastrophic
