"""Fault-injection tracing: every committed injection leaves a trace event,
and quarantine dumps are deterministic (satellite of the tracing PR)."""

import dataclasses

import pytest

from repro.faults import chaos, run_chaos
from repro.faults.injector import U64, FaultInjector
from repro.trace import Tracer


def _fault_events(tracer):
    return [e for e in tracer.events() if e.kind == "fault-inject"]


class TestInjectionTracing:
    @pytest.mark.parametrize("plan", ["csr-chaos", "transient-mmio", "decode-flip"])
    def test_every_injection_is_traced(self, plan):
        tracer = Tracer()
        result = run_chaos("opensbi", plan=plan, seed=3, tracer=tracer)
        assert result.injections > 0, f"plan {plan} injected nothing at seed 3"
        events = _fault_events(tracer)
        assert len(events) == result.injections
        for event in events:
            assert event.args["seed"] == 3
            assert event.args["site"] in ("vcsr-write", "mmio", "decode", "stall")

    def test_trace_sites_match_injector_log(self):
        tracer = Tracer()
        result = run_chaos("opensbi", plan="csr-chaos", seed=3, tracer=tracer)
        traced = [(e.args["site"], e.args["index"]) for e in _fault_events(tracer)]
        assert result.injections == len(traced)
        assert traced == sorted(traced, key=lambda pair: (pair[0], pair[1]))

    @pytest.mark.parametrize("plan,seed", [
        ("mtvec-smash", 1), ("csr-chaos", 3), ("transient-mmio", 3),
        ("decode-flip", 3), ("stall-loop", 1),
    ])
    def test_traced_detail_equals_injection_log(self, plan, seed):
        """A ``vcsr-write`` event carries the corruption, as the log does
        (it used to be emitted before the corruption was known, so the
        trace said ``csr=0x305`` where the log said
        ``csr=0x305 0x80000100->0x7f0080000100``)."""
        tracer = Tracer()
        result = run_chaos("opensbi", plan=plan, seed=seed, tracer=tracer)
        traced = [(e.args["site"], e.args["index"], e.args["detail"])
                  for e in _fault_events(tracer)]
        assert result.injection_log
        assert traced == list(result.injection_log)


class TraceBeforeCorruption(FaultInjector):
    """The ``vcsr-write`` site as it was before the fix: the decision was
    traced before the corruption was known, and only the log entry was
    patched with it."""

    def corrupt_vcsr_write(self, hartid: int, csr: int, value: int) -> int:
        fired = self._decide("vcsr-write", hart=hartid, csr=csr)
        if fired is None:
            return value
        spec, index = fired
        self._commit("vcsr-write", index, f"csr={csr:#x}", hartid)
        if spec.xor_mask is not None:
            corrupted = (value ^ spec.xor_mask) & U64
        else:
            corrupted = (value ^ (1 << self._rng.getrandbits(6))) & U64
        last = self.injections[-1]
        self.injections[-1] = last._replace(
            detail=f"csr={csr:#x} {value:#x}->{corrupted:#x}")
        return corrupted


def _without_inject_details(events) -> list[tuple]:
    """Every event as a tuple, with the ``fault-inject`` details left out."""
    return [
        event.to_tuple() if event.kind != "fault-inject"
        else event.to_tuple()[:5] + (tuple(
            (key, value) for key, value in sorted(event.args.items())
            if key != "detail"),)
        for event in events
    ]


@pytest.mark.parametrize("plan,seed", [("mtvec-smash", 1), ("csr-chaos", 3)])
def test_detail_fix_moves_only_inject_details(plan, seed, monkeypatch):
    """Differential check of the fix: against the injector that traced
    too early, the same run differs only in its ``vcsr-write`` events'
    ``detail``, which gained the corruption, and the result is unchanged."""
    fixed_tracer = Tracer()
    fixed = run_chaos("opensbi", plan=plan, seed=seed, tracer=fixed_tracer)
    monkeypatch.setattr(chaos, "FaultInjector", TraceBeforeCorruption)
    early_tracer = Tracer()
    early = run_chaos("opensbi", plan=plan, seed=seed, tracer=early_tracer)
    assert dataclasses.asdict(fixed) == dataclasses.asdict(early)
    assert fixed_tracer.counts == early_tracer.counts
    fixed_events, early_events = fixed_tracer.events(), early_tracer.events()
    assert (_without_inject_details(fixed_events)
            == _without_inject_details(early_events))
    moved = [(a.args["detail"], b.args["detail"])
             for a, b in zip(fixed_events, early_events)
             if a.args != b.args]
    assert moved
    for now, before in moved:
        assert now.startswith(before + " ") and "->" in now


class TestQuarantineDumps:
    def _run(self, plan, seed):
        tracer = Tracer()
        result = run_chaos("opensbi", plan=plan, seed=seed, tracer=tracer)
        return result, tracer

    def _quarantining_run(self):
        for seed in range(6):
            result, tracer = self._run("mtvec-smash", seed)
            if result.quarantined:
                return ("mtvec-smash", seed), tracer
        pytest.fail("no mtvec-smash seed in 0..5 quarantined")

    def test_quarantine_dumps_last_events(self):
        _, tracer = self._quarantining_run()
        assert tracer.quarantine_dumps
        reason, events = tracer.quarantine_dumps[0]
        assert reason
        assert 0 < len(events) <= 64
        assert events[-1].seq <= tracer.total_events

    def test_quarantine_dump_is_deterministic(self):
        (plan, seed), first = self._quarantining_run()
        _, second = self._run(plan, seed)
        assert len(first.quarantine_dumps) == len(second.quarantine_dumps)
        for (reason_a, events_a), (reason_b, events_b) in zip(
            first.quarantine_dumps, second.quarantine_dumps
        ):
            assert reason_a == reason_b
            assert [e.to_tuple() for e in events_a] == [
                e.to_tuple() for e in events_b
            ]

    def test_whole_trace_is_deterministic(self):
        _, first = self._run("stall-loop", 1)
        _, second = self._run("stall-loop", 1)
        assert first.counts == second.counts
        assert [e.to_tuple() for e in first.events()] == [
            e.to_tuple() for e in second.events()
        ]
