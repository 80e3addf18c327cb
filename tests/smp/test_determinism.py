"""Determinism contract: a schedule is a pure function of its inputs.

Same (workload, harts, quantum, seed, jitter) ⇒ byte-identical trace
event streams — not just the same end state.  This is what makes
interleaving fuzzing reproducible: any failure found at a seed replays
exactly.
"""

import dataclasses

import pytest

from repro.os_model.workloads import SMP_WORKLOADS
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized
from repro.trace import Tracer


def _traced_run(harts, workload_name, quantum=50, seed=0, jitter=0):
    primary, secondary = SMP_WORKLOADS[workload_name]()
    system = build_virtualized(
        dataclasses.replace(VISIONFIVE2, num_harts=harts),
        workload=primary,
        secondary_workload=secondary,
        start_secondaries=harts > 1,
    )
    tracer = Tracer()
    system.machine.tracer = tracer
    reason = system.run_smp(quantum=quantum, seed=seed, jitter=jitter)
    stream = tuple(event.to_tuple() for event in tracer.events())
    assert tracer.dropped == 0, "ring too small for a determinism check"
    return {
        "reason": reason,
        "stream": stream,
        "steps": list(system.machine.scheduler.steps),
        "slices": system.machine.scheduler.slices,
        "ssi": dict(system.kernel.ssi_by_hart),
        "console": system.console_output,
    }


class TestDeterminism:
    @pytest.mark.parametrize("harts", [1, 2, 4])
    def test_same_seed_identical_trace_streams(self, harts):
        a = _traced_run(harts, "ipi-pingpong", seed=3)
        b = _traced_run(harts, "ipi-pingpong", seed=3)
        assert a["reason"] == b["reason"]
        assert a["steps"] == b["steps"]
        assert a["slices"] == b["slices"]
        assert a["ssi"] == b["ssi"]
        assert a["console"] == b["console"]
        assert a["stream"] == b["stream"]

    def test_jittered_schedule_still_deterministic_per_seed(self):
        a = _traced_run(2, "rfence-storm", quantum=40, seed=9, jitter=15)
        b = _traced_run(2, "rfence-storm", quantum=40, seed=9, jitter=15)
        assert a["stream"] == b["stream"]
        assert a["steps"] == b["steps"]

    def test_timer_workload_deterministic(self):
        a = _traced_run(2, "timer-contention", seed=1)
        b = _traced_run(2, "timer-contention", seed=1)
        assert a["stream"] == b["stream"]
        assert a["ssi"] == b["ssi"]
