"""Timing-free guard on the trap round trip: Python calls and bytecodes
per recorded trap.

Host time per trap is dominated by interpreter glue, and a host timing is
too noisy to gate on.  The number of Python function calls per trap, and
of bytecode instructions executed per trap (counted with opcode tracing),
are exact and deterministic for one interpreter version, so a regression
on the trap path (a new wrapper, a property on the hot path, a per-trap
object with a Python ``__init__``, extra work inside a function) shows
here without a timer.

Two slices of the benchmark workloads are counted with ``sys.setprofile``
after a warm-up pass (so lookup caches are filled):

- the chaos cell ``opensbi`` x ``stall-loop`` x seed 137, a vM-mode CSR
  trap re-executed until the watchdog's trap budget breaks the loop.  The
  watchdog's storm detector ends that loop after ``MAX_FAULT_REPEATS``
  repeats, which would leave a slice of mostly boot glue, so the cell
  runs with the storm out of reach (``MAX_FAULT_REPEATS = 10**9``) and
  keeps its ~8k runaway traps per run;
- 100 ops of the Fig. 12 Memcached stream under ``miralis-no-offload``,
  where every op world-switches into the firmware and back;
- the same 100 ops under ``miralis``, where every trap takes the offload
  fast path and the hart layer is most of the work;
- the full SBI chaos cell ``opensbi`` x ``none`` x seed 1: the sandbox
  policy, watchdog and fault injector armed, ~38 world-switch round trips
  over ~219 traps, so the sandbox hooks and the activation arm count.

Each budget is the count measured when it was set plus 10% headroom.  A
change that lowers the count should lower the budget with it.  The counts
differ between interpreter versions (and can between patch releases), so
each is recorded for the patch version it was measured on, and a slice
with no count for the running version is skipped.
"""

from __future__ import annotations

import random
import sys
from unittest import mock

import pytest

from repro.bench.runner import build_system
from repro.core import watchdog
from repro.coverage import CoverageMap
from repro.faults import chaos
from repro.hart.stats import TrapStats
from repro.os_model.workloads import MEMCACHED
from repro.spec.platform import VISIONFIVE2

HEADROOM = 1.10

#: Python version -> workload -> calls per recorded trap when set,
#: measured on CPython 3.11.7 and 3.12.1 (3.12 before the hart layer's
#: interrupt check and register paths were inlined, so its counts are
#: ceilings).  3.12 inlines comprehensions, hence its lower counts.
MEASURED = {
    (3, 11): {"stall-loop": 24.42, "memcached-reinject": 39.63,
              "memcached-offload": 40.37, "opensbi-none": 67.24},
    (3, 12): {"stall-loop": 28.50, "memcached-reinject": 47.51,
              "opensbi-none": 76.74},
}
#: Python version -> workload -> bytecode instructions per recorded trap
#: when set, on the same interpreters.
MEASURED_BYTECODES = {
    (3, 11): {"stall-loop": 1338.2, "memcached-reinject": 1814.0,
              "memcached-offload": 1652.9, "opensbi-none": 2814.6},
    (3, 12): {"stall-loop": 1311.1, "memcached-reinject": 1792.7,
              "opensbi-none": 2746.3},
}

_RECORD_TRAP = TrapStats.record_trap.__code__


class CallCounter:
    """A profile hook counting Python calls and ``record_trap`` entries."""

    def __init__(self):
        self.calls = 0
        self.traps = 0

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            self.calls += 1
            if frame.f_code is _RECORD_TRAP:
                self.traps += 1

    def run(self, fn) -> float:
        sys.setprofile(self)
        try:
            fn()
        finally:
            sys.setprofile(None)
        assert self.traps > 0
        return self.calls / self.traps


class BytecodeCounter:
    """A trace hook counting executed bytecodes and ``record_trap`` entries."""

    def __init__(self):
        self.bytecodes = 0
        self.traps = 0

    def __call__(self, frame, event, arg):
        if event == "opcode":
            self.bytecodes += 1
        elif event == "call":
            frame.f_trace_opcodes = True
            if frame.f_code is _RECORD_TRAP:
                self.traps += 1
        return self

    def run(self, fn) -> float:
        # CPython 3.12.1 reports no opcode events in the first tracing
        # session of a process; a traced no-op session absorbs that.
        sys.settrace(self)
        _no_op()
        sys.settrace(None)
        self.bytecodes = 0
        sys.settrace(self)
        try:
            fn()
        finally:
            sys.settrace(None)
        assert self.traps > 0
        return self.bytecodes / self.traps


def _no_op() -> None:
    pass


def _stall_loop() -> None:
    chaos.run_chaos("opensbi", "stall-loop", 137, coverage=CoverageMap())


def _opensbi_none() -> None:
    chaos.run_chaos("opensbi", "none", 1, coverage=CoverageMap())


def _memcached(configuration: str, measure):
    """Boot ``configuration`` and hand ``measure`` the op loop."""
    kinds, weights = zip(*MEMCACHED.weights())
    stream = random.Random(1).choices(kinds, weights=weights, k=100)
    compute = max(1, int(VISIONFIVE2.frequency_hz / MEMCACHED.total_rate))
    result = {}

    def guest(kernel, ctx) -> None:
        misaligned = kernel.region.base + 0x8000 + 1
        ipi_mask = 1 << (kernel.machine.config.num_harts - 1)

        def ops() -> None:
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
                    ctx.load(misaligned, size=4)

        result["per_trap"] = measure(ops)

    system = build_system(configuration, VISIONFIVE2, guest,
                          keep_trap_events=False)
    assert "sbi system reset" in system.run()
    return result["per_trap"]


def per_trap(workload: str, counter) -> float:
    """``counter`` (a :class:`CallCounter` or :class:`BytecodeCounter`
    class) over one warmed-up run of ``workload``, per recorded trap."""
    if workload == "stall-loop":
        with mock.patch.object(watchdog, "MAX_FAULT_REPEATS", 10**9):
            _stall_loop()  # warm-up
            return counter().run(_stall_loop)
    if workload == "opensbi-none":
        _opensbi_none()  # warm-up
        return counter().run(_opensbi_none)
    configuration = MEMCACHED_CONFIGURATIONS[workload]
    _memcached(configuration, lambda ops: ops())  # warm-up
    return _memcached(configuration, lambda ops: counter().run(ops))


def calls_per_trap(workload: str) -> float:
    return per_trap(workload, CallCounter)


def bytecodes_per_trap(workload: str) -> float:
    return per_trap(workload, BytecodeCounter)


#: Memcached slice -> the system configuration it boots.
MEMCACHED_CONFIGURATIONS = {"memcached-reinject": "miralis-no-offload",
                            "memcached-offload": "miralis"}

WORKLOADS = ["stall-loop", "memcached-reinject", "memcached-offload",
             "opensbi-none"]


def _budget(table: dict, workload: str) -> tuple[float, float]:
    version = sys.version_info[:2]
    measured = table.get(version, {}).get(workload)
    if measured is None:
        pytest.skip(f"no count recorded for {workload} on CPython "
                    f"{version[0]}.{version[1]}")
    return measured, measured * HEADROOM


@pytest.mark.parametrize("workload", WORKLOADS)
def test_calls_per_trap_within_budget(workload):
    measured, budget = _budget(MEASURED, workload)
    per_trap = calls_per_trap(workload)
    assert per_trap <= budget, (
        f"{workload}: {per_trap:.2f} Python calls per trap, budget "
        f"{budget:.2f} ({measured} + 10%)")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bytecodes_per_trap_within_budget(workload):
    measured, budget = _budget(MEASURED_BYTECODES, workload)
    per_trap = bytecodes_per_trap(workload)
    assert per_trap <= budget, (
        f"{workload}: {per_trap:.1f} bytecodes per trap, budget "
        f"{budget:.1f} ({measured} + 10%)")
