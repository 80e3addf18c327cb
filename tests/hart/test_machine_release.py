"""A finished machine must be collectable.

Owned stats providers are keyed by a weak reference to their machine and
dropped when it dies.  A provider closure holding a strong path back to the
machine (the bus whose CLINT calls back into the machine) kept that weak
reference alive forever, so every machine a process built stayed in memory.
"""

from __future__ import annotations

import gc
import weakref

from repro.bench.runner import build_system
from repro.perf import counters
from repro.spec.platform import VISIONFIVE2


def _workload(kernel, ctx) -> None:
    for _ in range(5):
        ctx.compute(100)
        kernel.read_time(ctx)


def test_finished_machines_are_collected_with_their_providers():
    gc.collect()
    before = set(counters._providers)
    machines = []
    for _ in range(3):
        system = build_system("miralis", VISIONFIVE2, _workload)
        assert "sbi system reset" in system.run()
        machines.append(weakref.ref(system.machine))
    added = set(counters._providers) - before
    assert added, "machines registered no owned providers"
    del system
    gc.collect()
    assert [ref() for ref in machines] == [None, None, None]
    assert not added & set(counters._providers)
