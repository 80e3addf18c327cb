"""Tests of the benchmark's own machinery (not of the simulator).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
import time
import types

import pytest

from perfbench import chaos, pace, spans, trapmix
from perfbench.run import PROFILE_SHARE_BOUND
from perfbench.stats import tail

#: Relative tolerance for wall-clock comparisons, the benchmark's largest
#: end-to-end bound.
BOUND = 0.25


def test_op_stream_repeats_per_seed_and_differs_across_seeds():
    assert trapmix.op_stream(7) == trapmix.op_stream(7)
    assert trapmix.op_stream(7) != trapmix.op_stream(8)
    assert set(trapmix.op_stream(7)) == set(trapmix.OP_KINDS)


def test_chaos_matrix_repeats_per_seed_and_covers_every_plan():
    cells = chaos.matrix(3)
    assert cells == chaos.matrix(3)
    assert cells != chaos.matrix(4)
    assert {(fw, plan) for fw, plan, _ in cells} == {
        (fw, plan) for fw in chaos.CHAOS_FIRMWARES for plan in chaos.PLANS
    }


def _bindings() -> dict:
    """Identity of every module global and class attribute under repro."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    seen[(name, attr, key)] = id(member)
    return seen


def test_wrappers_are_fully_removed_after_a_traced_round():
    spans.import_package("repro")
    before = _bindings()
    recorder = spans.SpanRecorder()
    kinds = trapmix.op_stream(1, count=20)
    with spans.installed(recorder):
        from repro.hart import hart as hart_module

        # Names imported by value are rebound too.
        assert hart_module.execute_instruction is not (
            recorder.call_totals()["execute_instruction"].original)
        result = trapmix.run_round("memcached-offload", kinds, recorder)
    assert not trapmix.round_errors(result, kinds)
    assert recorder.call_totals()["TrapStats.record_trap"].calls == result.traps
    assert recorder.leftover_wrappers() == []
    assert _bindings() == before


def _fake_layers():
    """Two nested layers with known self times, plus a by-value import."""
    package = types.ModuleType("fakebench")
    package.__path__ = []
    outer = types.ModuleType("fakebench.outer")
    inner = types.ModuleType("fakebench.inner")

    def leaf():
        time.sleep(0.03)

    def work():
        time.sleep(0.02)
        outer.leaf()  # by-value binding in another module

    inner.leaf = leaf
    outer.leaf = leaf
    outer.work = work
    modules = {"fakebench": package, "fakebench.outer": outer,
               "fakebench.inner": inner}
    layers = (spans.Layer("outer", "fakebench.outer", ("work",)),
              spans.Layer("inner", "fakebench.inner", ("leaf",)))
    return modules, layers, outer


def test_span_self_times_sum_to_the_op_wall_time(monkeypatch):
    modules, layers, outer = _fake_layers()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    recorder = spans.SpanRecorder()
    with spans.installed(recorder, layers):
        recorder.begin_op()
        start = time.perf_counter()
        outer.work()
        wall = time.perf_counter() - start
        recorder.end_op(wall)
    totals = recorder.layer_totals(layers)
    assert totals["outer"]["calls"] == totals["inner"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(0.02, rel=BOUND)
    assert totals["inner"]["self_s"] == pytest.approx(0.03, rel=BOUND)
    span_sum = sum(total["self_s"] for total in totals.values())
    assert span_sum == pytest.approx(wall, rel=BOUND)
    assert recorder.unattributed_s >= 0.0
    assert outer.leaf is modules["fakebench.inner"].leaf


def test_traced_trap_mix_accounts_every_op_second():
    recorder = spans.SpanRecorder()
    kinds = trapmix.op_stream(2, count=30)
    with spans.installed(recorder):
        result = trapmix.run_round("memcached-reinject", kinds, recorder)
    totals = recorder.layer_totals()
    assert all(total["self_s"] >= 0.0 for total in totals.values())
    span_sum = sum(total["self_s"] for total in totals.values())
    assert span_sum + recorder.unattributed_s == pytest.approx(
        sum(result.latencies), rel=1e-9)
    assert totals["core.world_switch"]["calls"] > 0
    assert totals["core.offload"]["calls"] == 0


def test_cprofile_rollup_agrees_with_spans():
    kinds = trapmix.op_stream(3, count=200)
    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        trapmix.run_round("memcached-offload", kinds, recorder)
    hooks = spans.ProfileHooks()
    trapmix.run_round("memcached-offload", kinds, hooks)
    span_self = {layer: total["self_s"]
                 for layer, total in recorder.layer_totals().items()}
    profile_self, profile_total = spans.cprofile_layer_self(hooks.profile)
    error, _layer = spans.share_error(span_self, recorder.op_s,
                                      profile_self, profile_total)
    assert error <= PROFILE_SHARE_BOUND


def test_hung_chaos_cell_is_cut_at_its_bound():
    start = time.perf_counter()
    cell = chaos.run_cell(("opensbi", "csr-chaos", 119), bound_s=0.5)
    assert time.perf_counter() - start < 5.0
    assert cell.bounded and not cell.ok
    assert cell.digest == ""


def test_tail_keeps_ten_samples_beyond_it():
    assert tail(list(range(10_000)))[0] == 99.9
    assert tail(list(range(9_999)))[0] == 99.0
    assert tail(list(range(150)))[0] == 90.0


def test_pace_scales_host_seconds_to_the_reference_pace():
    reference = pace.REFERENCE_S
    assert pace.scale(reference, reference) == pytest.approx(1.0)
    assert pace.scale(2 * reference, 2 * reference) == pytest.approx(0.5)
    assert pace.reading() > 0.0
