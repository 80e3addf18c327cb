"""Unit tests for the trace subsystem: ring buffer, counters, export."""

import json

import pytest

from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized
from repro.trace import (
    LatencyHistogram,
    SCHEMA,
    Tracer,
    cause_counts,
    cause_table,
    dump_trace,
    load_trace,
    render_timeline,
    to_chrome_trace,
    trace_summary,
    validate_chrome_trace,
)


def _demo_workload(kernel, ctx):
    t0 = kernel.read_time(ctx)
    ctx.compute(2_000)
    kernel.sbi_send_ipi(ctx, 0b1, 0)
    ctx.compute(100)
    kernel.print(ctx, f"up at {t0}\n")


@pytest.fixture(scope="module")
def traced_boot():
    system = build_virtualized(VISIONFIVE2, workload=_demo_workload)
    tracer = Tracer()
    system.machine.tracer = tracer
    reason = system.run()
    assert "sbi system reset" in reason
    return system, tracer


class TestTracer:
    def test_disabled_by_default(self):
        system = build_virtualized(VISIONFIVE2, workload=_demo_workload)
        assert system.machine.tracer is None
        system.run()  # no tracer attached: must work untouched

    def test_records_every_layer(self, traced_boot):
        _, tracer = traced_boot
        for kind in ("trap-entry", "trap-exit", "world-switch",
                     "fw-emulate", "fastpath", "vpmp"):
            assert tracer.counts[kind] > 0, f"no {kind} events recorded"

    def test_events_are_stamped(self, traced_boot):
        _, tracer = traced_boot
        for event in tracer.events():
            assert event.mtime >= 0
            assert event.instret >= 0
            assert event.kind in tracer.counts

    def test_cause_counters_match_stats(self, traced_boot):
        system, tracer = traced_boot
        assert tracer.dropped == 0
        assert dict(tracer.trap_causes) == dict(system.machine.stats.trap_counts)
        assert tracer.counts["trap-entry"] == system.machine.stats.total_traps

    def test_ring_wraps_but_counters_stay_exact(self):
        tracer = Tracer(capacity=8)

        class _FakeHart:
            instret = 0

        class _FakeConfig:
            frequency_hz = 1_000_000

        class _FakeMachine:
            harts = [_FakeHart()]
            config = _FakeConfig()
            cycles = 0.0

        machine = _FakeMachine()
        for _ in range(20):
            tracer.emit(machine, "fw-emulate", 0, what="nop")
        assert len(tracer.events()) == 8
        assert tracer.counts["fw-emulate"] == 20
        assert tracer.dropped == 12
        assert tracer.total_events == 20

    def test_rewind_ignores_an_epoch_beyond_its_clock(self, traced_boot):
        """A checkpoint restored under a fresh tracer carries the epoch
        of the tracer that captured it; rewinding to it is a no-op."""
        _, other = traced_boot
        tracer = Tracer()
        tracer.rewind_to_epoch(other.mark_epoch())
        assert tracer.total_events == 0
        assert not tracer.counts

    def test_quarantine_dump_captures_tail(self, traced_boot):
        _, tracer = traced_boot
        tracer.note_quarantine("test reason", tail=4)
        assert len(tracer.quarantine_dumps) == 1
        reason, events = tracer.quarantine_dumps[-1]
        assert reason == "test reason"
        assert len(events) == 4
        assert [e.seq for e in events] == [e.seq for e in tracer.tail(4)]


class TestExport:
    def test_chrome_trace_is_schema_valid(self, traced_boot):
        _, tracer = traced_boot
        doc = to_chrome_trace(tracer)
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["schema"] == SCHEMA

    def test_cause_counts_equal_stats(self, traced_boot):
        system, tracer = traced_boot
        doc = to_chrome_trace(tracer)
        assert cause_counts(doc) == dict(system.machine.stats.trap_counts)

    def test_round_trip_through_file(self, traced_boot, tmp_path):
        _, tracer = traced_boot
        path = tmp_path / "trace.json"
        dump_trace(tracer, path)
        doc = load_trace(path)
        assert validate_chrome_trace(doc) == []
        # The file is plain JSON — any Chrome-trace viewer can open it.
        assert json.loads(path.read_text())["otherData"]["schema"] == SCHEMA

    def test_validator_flags_corruption(self, traced_boot):
        _, tracer = traced_boot
        doc = to_chrome_trace(tracer)
        doc["otherData"]["trap_causes"]["ILLEGAL_INSTRUCTION"] = 1
        assert validate_chrome_trace(doc)

    def test_spans_have_durations(self, traced_boot):
        _, tracer = traced_boot
        doc = to_chrome_trace(tracer)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans
        for span in spans:
            assert span["dur"] >= 0
            assert span["args"]["cycles"] >= 0


class TestRendering:
    def test_summary_mentions_counts(self, traced_boot):
        _, tracer = traced_boot
        text = trace_summary(tracer)
        assert "trap-entry" in text
        assert str(tracer.total_events) in text

    def test_cause_table_lists_every_cause(self, traced_boot):
        system, tracer = traced_boot
        text = cause_table(to_chrome_trace(tracer))
        for cause in system.machine.stats.trap_counts:
            assert cause in text
        assert "total" in text

    def test_timeline_respects_last(self, traced_boot):
        _, tracer = traced_boot
        doc = to_chrome_trace(tracer)
        lines = render_timeline(doc, last=5).splitlines()
        assert len([l for l in lines if l.startswith("[")]) == 5


class TestMetrics:
    def test_histogram_statistics(self):
        hist = LatencyHistogram()
        for value in (1, 2, 4, 100):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 1
        assert snap["max"] == 100
        assert hist.mean == pytest.approx(107 / 4)

    def test_trap_latencies_observed(self, traced_boot):
        _, tracer = traced_boot
        latencies = tracer.metrics.trap_latency
        assert "ILLEGAL_INSTRUCTION" in latencies
        assert latencies["ILLEGAL_INSTRUCTION"].count > 0
        assert latencies["ILLEGAL_INSTRUCTION"].mean > 0
