"""System-level differential fuzzing: native ≡ virtualized.

Seeded random guest scenarios must be observationally identical across
the native and Miralis deployments — the end-to-end complement of the §6
component checkers.
"""

import pytest

from repro.core import bugs
from repro.spec.platform import PREMIER_P550, VISIONFIVE2
from repro.verif.fuzz import ACTIONS, Scenario, fuzz_scenario


class TestScenarioGeneration:
    def test_deterministic(self):
        assert Scenario(seed=7).actions() == Scenario(seed=7).actions()

    def test_seeds_differ(self):
        assert Scenario(seed=7).actions() != Scenario(seed=8).actions()

    def test_length(self):
        assert len(Scenario(seed=1, length=17).actions()) == 17

    def test_all_actions_reachable(self):
        seen = set()
        for seed in range(40):
            seen.update(name for name, _ in Scenario(seed, length=60).actions())
        assert seen == {name for name, _ in ACTIONS}


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("seed", range(0, 12))
    def test_offload_equivalence(self, seed):
        finding = fuzz_scenario(seed, length=30)
        assert finding is None, str(finding)

    @pytest.mark.parametrize("seed", range(0, 6))
    def test_no_offload_equivalence(self, seed):
        finding = fuzz_scenario(seed, length=30, offload=False)
        assert finding is None, str(finding)

    @pytest.mark.parametrize("seed", range(100, 104))
    def test_p550_equivalence(self, seed):
        finding = fuzz_scenario(seed, length=25, platform=PREMIER_P550)
        assert finding is None, str(finding)

    def test_campaign_helper(self):
        assert [fuzz_scenario(seed, length=20)
                for seed in range(50, 56)] == [None] * 6


class TestFuzzerSensitivity:
    """Non-vacuity: the fuzzer flags OS-visible virtualization defects."""

    def _first_finding(self, seeds=range(0, 12), **kwargs):
        for seed in seeds:
            finding = fuzz_scenario(seed, length=30, **kwargs)
            if finding is not None:
                return finding
        return None

    def test_detects_corrupted_misaligned_emulation(self, monkeypatch):
        """A wrong-byte fast-path emulation is an OS-visible hole."""
        from repro.core.offload import FastPath

        original = FastPath._handle_misaligned

        def corrupted(self, hart):
            handled = original(self, hart)
            if handled:
                # Flip a bit in the destination register post-emulation.
                from repro.isa.decoder import decode

                try:
                    # mepc still addresses the emulated instruction.
                    instr = decode(self.machine.ram.read(hart.state.csr.mepc, 4))
                    if instr.is_load and instr.rd:
                        hart.state.set_xreg(
                            instr.rd, hart.state.get_xreg(instr.rd) ^ 1
                        )
                except Exception:
                    pass
            return handled

        monkeypatch.setattr(FastPath, "_handle_misaligned", corrupted)
        finding = self._first_finding()
        assert finding is not None

    def test_detects_wrong_sbi_result(self, monkeypatch):
        """An offload handler returning wrong errors is OS-visible."""
        from repro.core.offload import FastPath
        from repro.sbi.types import SbiRet

        def broken_set_timer(self, hart, vctx, deadline):
            hart.charge(10)
            return SbiRet.success(0xBAD)  # wrong: value must be 0

        monkeypatch.setattr(FastPath, "_sbi_set_timer", broken_set_timer)
        # Breaking set_timer stalls the tick wait loop -> halt divergence.
        finding = self._first_finding(seeds=range(0, 8))
        assert finding is not None

    def test_latent_bugs_are_component_level(self):
        """Some §6.5 bugs (e.g. mret leaving MPP set) do not perturb any
        OS-visible behaviour in these scenarios — exactly why the paper
        checks faithful emulation at state granularity rather than relying
        on end-to-end testing.  The component checker catches them
        (test_seeded_bugs); the fuzzer legitimately may not."""
        with bugs.seeded("mret_mpp_not_cleared"):
            findings = [fuzz_scenario(seed, length=20, offload=False)
                        for seed in range(0, 4)]
        assert len(findings) == 4  # documented, not asserted-empty


class TestExecutionBudgets:
    """A diverging case must report its seed, not hang the campaign."""

    def test_dispatch_budget_reports_budget_crash(self, monkeypatch):
        from repro.verif import fuzz

        monkeypatch.setattr(fuzz, "CASE_DISPATCH_LIMIT", 5)
        observation = fuzz._run_scenario(Scenario(seed=0, length=10),
                                         virtualized=True)
        assert observation.crashed is not None
        assert observation.crashed.startswith("budget")

    def test_identical_hangs_still_produce_a_finding(self, monkeypatch):
        from repro.verif import fuzz

        monkeypatch.setattr(fuzz, "CASE_DISPATCH_LIMIT", 5)
        finding = fuzz_scenario(0, length=10)
        assert finding is not None
        assert "budget" in str(finding)

    def test_generous_budgets_leave_clean_seeds_clean(self):
        assert fuzz_scenario(50, length=20) is None

    def test_long_scenario_stays_under_the_bound(self):
        """The bound grows with the step count: a 5,000-step case makes
        about 32,000 dispatches on its virtualized side, past one
        ``CASE_DISPATCH_LIMIT``, and still ends clean."""
        assert fuzz_scenario(0, length=5000, offload=False) is None

    def test_protocol_error_under_the_bound_is_not_a_budget(
            self, monkeypatch):
        """Only a run past its dispatch bound is a blown budget; any other
        ProtocolError is a crash like every other exception, and the
        same crash on both deployments is no divergence."""
        from repro.hart.program import ProtocolError
        from repro.os_model.kernel import KernelProgram
        from repro.verif.fuzz import _run_scenario

        def lost(self, ctx, char):
            raise ProtocolError("program kernel re-entered at "
                                "unexpected pc 0x0")

        monkeypatch.setattr(KernelProgram, "sbi_putchar", lost)
        observation = _run_scenario(Scenario(seed=0, length=10),
                                    virtualized=True)
        assert observation.crashed == (
            "ProtocolError: program kernel re-entered at unexpected pc 0x0")
        assert fuzz_scenario(0, length=10) is None

    def test_outcomes_do_not_read_the_host_clock(self, monkeypatch):
        """A host clock that jumps 1,000 s per read (a loaded or
        suspended host) changes neither a fuzz verdict nor a chaos
        cell."""
        import itertools
        import time

        from repro.faults.chaos import run_chaos

        expected = run_chaos("opensbi", "random", seed=3)
        ticks = itertools.count()
        monkeypatch.setattr(time, "monotonic",
                            lambda: 1_000.0 * next(ticks))
        assert fuzz_scenario(0, length=30) is None
        assert run_chaos("opensbi", "random", seed=3) == expected
