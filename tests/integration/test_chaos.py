"""Chaos integration suite: every firmware × fault plan must end well.

The acceptance contract for the fault model: under every canned plan and
a set of fixed seeds, each firmware either brings the OS to its workload
checkpoint or the run terminates through a *recorded* recovery decision
(quarantine / clean halt) — and no Python exception ever escapes the
simulator.  Identical (plan, seed) pairs must replay identical trap logs.
"""

import pytest

from repro.faults import CHAOS_SUITE, run_chaos
from repro.faults.chaos import CHAOS_FIRMWARES

#: Fixed seeds for the full matrix.  One seed across the whole matrix
#: keeps the suite fast; the CI chaos-smoke job adds random-plan sweeps.
MATRIX_SEED = 3


class TestChaosMatrix:
    @pytest.mark.parametrize("firmware", CHAOS_FIRMWARES)
    @pytest.mark.parametrize("plan", CHAOS_SUITE)
    def test_firmware_survives_plan(self, firmware, plan):
        result = run_chaos(firmware, plan, seed=MATRIX_SEED)
        assert result.error is None, (
            f"Python exception escaped: {result.error}\n{result.report()}"
        )
        assert result.ok, result.report()
        # The end state is a recorded decision, not a silent wedge.
        assert result.checkpoint or result.quarantined or result.halt_reason

    @pytest.mark.parametrize("firmware", CHAOS_FIRMWARES)
    def test_control_plan_reaches_checkpoint(self, firmware):
        result = run_chaos(firmware, "none", seed=MATRIX_SEED)
        assert result.ok and result.checkpoint, result.report()
        assert result.injections == 0
        assert not result.quarantined


class TestChaosDeterminism:
    @pytest.mark.parametrize("firmware", ["opensbi", "zephyr"])
    @pytest.mark.parametrize("plan", ["flaky-uart", "stall-loop"])
    def test_same_seed_identical_runs(self, firmware, plan):
        a = run_chaos(firmware, plan, seed=7)
        b = run_chaos(firmware, plan, seed=7)
        assert a.trap_log == b.trap_log
        assert a.halt_reason == b.halt_reason
        assert a.recoveries == b.recoveries
        assert a.injections == b.injections
        assert a.console == b.console

    def test_random_plan_deterministic_per_seed(self):
        a = run_chaos("opensbi", "random", seed=11)
        b = run_chaos("opensbi", "random", seed=11)
        assert a.plan == b.plan == "random-11"
        assert a.trap_log == b.trap_log


class TestRecoveryAccounting:
    """The watchdog's decision counts tell a consistent story.

    The trap log is annotated via ``annotate_last``, which has move
    semantics, so annotations alone under-count when several recoveries
    share one trap event; the watchdog's per-hart ``hart_counters`` are
    the one store of its decisions, and ``ChaosResult.recoveries`` is
    their sum.
    """

    @pytest.mark.parametrize("plan", ["mtvec-smash", "stall-loop"])
    def test_every_recovery_is_a_retry_or_quarantine(self, plan):
        result = run_chaos("opensbi", plan, seed=MATRIX_SEED)
        recoveries = result.recoveries.get("recoveries", 0)
        assert recoveries > 0, f"{plan} at seed {MATRIX_SEED} recovered nothing"
        assert recoveries == (
            result.recoveries.get("retries", 0)
            + result.recoveries.get("quarantines", 0)
        )

    def test_detections_sum_to_recoveries(self):
        result = run_chaos("opensbi", "stall-loop", seed=MATRIX_SEED)
        detections = sum(
            count for name, count in result.recoveries.items()
            if name.startswith("detect:")
        )
        assert detections == result.recoveries.get("recoveries", 0)
        assert detections == result.recoveries.get("detect:trap-storm", 0)

    @pytest.mark.parametrize("plan", CHAOS_SUITE)
    def test_per_hart_recovery_counts_sum_to_aggregate(self, plan):
        """Watchdog decisions are keyed by hart; the per-hart views must
        always reconstruct the aggregates exactly (no mis-attribution)."""
        result = run_chaos("opensbi", plan, seed=MATRIX_SEED)
        assert result.error is None, result.report()
        for kind, total in result.recoveries.items():
            per_hart = sum(
                counts.get(kind, 0) for counts in result.hart_recoveries
            )
            assert per_hart == total, (
                f"{plan}: {kind} aggregate {total} but per-hart sum {per_hart}"
            )

    def test_chaos_at_two_harts_deterministic_and_accounted(self):
        """The chaos contract holds under SMP interleaving: identical
        runs per seed, and per-hart recovery accounting stays exact."""
        a = run_chaos("opensbi", "stall-loop", seed=MATRIX_SEED, harts=2)
        b = run_chaos("opensbi", "stall-loop", seed=MATRIX_SEED, harts=2)
        assert a.error is None, a.report()
        assert a.ok, a.report()
        assert a.trap_log == b.trap_log
        assert a.halt_reason == b.halt_reason
        assert a.recoveries == b.recoveries
        assert a.recoveries.get("detect:trap-storm", 0) > 0
        assert "detect:trap-budget" not in a.recoveries
        assert len(a.hart_recoveries) == 2
        for kind, total in a.recoveries.items():
            per_hart = sum(
                counts.get(kind, 0) for counts in a.hart_recoveries
            )
            assert per_hart == total, kind


class TestChaosOutcomes:
    def test_stall_loop_ends_in_recorded_decision(self):
        result = run_chaos("opensbi", "stall-loop", seed=3)
        assert result.ok, result.report()
        # The runaway loop cannot end silently: either the watchdog
        # quarantined the firmware, or recovery retries got it through.
        assert result.quarantined or result.recoveries.get("retries", 0) > 0
        # The runaway is one instruction re-trapping with no progress:
        # the storm detector ends it, not the trap budget.
        assert result.recoveries.get("detect:trap-storm", 0) > 0
        assert "detect:trap-budget" not in result.recoveries

    def test_quarantined_run_still_serves_the_os(self):
        result = run_chaos("opensbi", "stall-loop", seed=3)
        if result.quarantined and result.checkpoint:
            assert result.recoveries.get("quarantined-served", 0) > 0

    def test_malicious_attack_stays_contained_under_chaos(self):
        # Faults must never weaken the sandbox: run the rootkit firmware
        # under every plan and assert the attack still fails.
        for plan in CHAOS_SUITE:
            result = run_chaos("malicious", plan, seed=MATRIX_SEED)
            assert result.ok, result.report()

    def test_random_sweep_never_leaks_exceptions(self):
        for seed in (1, 2, 5):
            for firmware in CHAOS_FIRMWARES:
                result = run_chaos(firmware, "random", seed=seed)
                assert result.error is None, result.report()
                assert result.ok, result.report()

    def test_unknown_firmware_rejected(self):
        with pytest.raises(ValueError, match="unknown firmware"):
            run_chaos("seabios", "none", seed=0)

    def test_report_mentions_key_fields(self):
        result = run_chaos("opensbi", "none", seed=0)
        text = result.report()
        for token in ("firmware:", "plan:", "seed:", "verdict:"):
            assert token in text
