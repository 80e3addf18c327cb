"""Watchdog and TrapStats recovery accounting must be keyed by hart.

Regression tests for globally-keyed counters: a secondary hart caught in
a fault loop bumped the same ``Counter`` as hart 0, so per-hart health
could not be told apart — chaos runs against multi-hart plans attributed
every secondary-hart recovery to the boot hart.  The aggregate counters
stay (dashboards and existing tests key off them); per-hart views are
now first class and must always sum to the aggregate.
"""

from __future__ import annotations

import pytest

from repro.core import watchdog as watchdog_module
from repro.core.config import MiralisConfig
from repro.hart.program import FirmwareRecovered
from repro.isa import constants as c
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized


@pytest.fixture(autouse=True)
def _short_watchdog(monkeypatch):
    """A 200-trap budget and two retries keep these boots short."""
    monkeypatch.setattr(watchdog_module, "VM_TRAP_BUDGET", 200)
    monkeypatch.setattr(watchdog_module, "MAX_FIRMWARE_RETRIES", 2)


def _watchdog_config(**overrides) -> MiralisConfig:
    params = dict(
        offload_enabled=False,
        watchdog_enabled=True,
        halt_on_violation=False,
    )
    params.update(overrides)
    return MiralisConfig(**params)


def _armed(hartid: int):
    system = build_virtualized(VISIONFIVE2, miralis_config=_watchdog_config())
    watchdog = system.miralis.watchdog
    hart = system.machine.harts[hartid]
    vctx = system.miralis.vctx[hartid]
    watchdog.arm_boot(hart, vctx)
    return system, watchdog, hart, vctx


def test_secondary_hart_recovery_not_attributed_to_hart0():
    system, watchdog, hart, vctx = _armed(1)
    with pytest.raises(FirmwareRecovered):
        watchdog.recover(hart, vctx, "synthetic secondary fault loop")
    assert watchdog.hart_counters[1]["recoveries"] == 1
    assert watchdog.hart_counters[1]["retries"] == 1
    assert watchdog.hart_counters[0]["recoveries"] == 0, (
        "secondary-hart recovery mis-attributed to hart 0"
    )
    # The aggregate view is preserved for existing consumers.
    assert watchdog.counters["recoveries"] == 1
    assert watchdog.counters["retries"] == 1


def test_detector_counters_keyed_by_hart():
    system, watchdog, hart, vctx = _armed(1)
    budget = watchdog_module.VM_TRAP_BUDGET
    with pytest.raises(FirmwareRecovered):
        for index in range(budget + 1):
            watchdog.note_vm_trap(hart, vctx, c.TrapCause.ILLEGAL_INSTRUCTION,
                                  0x8000_0000 + 4 * index, 0)
    assert watchdog.hart_counters[1]["detect:trap-budget"] == 1
    assert watchdog.hart_counters[0]["detect:trap-budget"] == 0
    assert watchdog.counters["detect:trap-budget"] == 1


def test_trap_storm_counted_on_its_hart_only():
    """Storm state is per hart: hart 0 trapping in between must neither
    reset hart 1's count nor be charged with hart 1's storm."""
    system, watchdog, hart, vctx = _armed(1)
    hart0 = system.machine.harts[0]
    vctx0 = system.miralis.vctx[0]
    watchdog.arm_boot(hart0, vctx0)
    with pytest.raises(FirmwareRecovered):
        for index in range(watchdog_module.MAX_FAULT_REPEATS + 1):
            hart0.instret += 1
            watchdog.note_vm_trap(hart0, vctx0, c.TrapCause.ECALL_FROM_U,
                                  0x8000_0000 + 4 * index, 0)
            hart.instret += 1
            watchdog.note_vm_trap(hart, vctx, c.TrapCause.ILLEGAL_INSTRUCTION,
                                  0x8000_0100, 0x3402_72F3)
    assert watchdog.hart_counters[1]["detect:trap-storm"] == 1
    assert watchdog.hart_counters[0]["detect:trap-storm"] == 0
    assert watchdog.counters["detect:trap-storm"] == 1


def test_per_hart_counters_sum_to_aggregate():
    system, watchdog, hart, vctx = _armed(1)
    with pytest.raises(FirmwareRecovered):
        watchdog.recover(hart, vctx, "synthetic")
    hart0 = system.machine.harts[0]
    vctx0 = system.miralis.vctx[0]
    watchdog.arm_boot(hart0, vctx0)
    with pytest.raises(FirmwareRecovered):
        watchdog.recover(hart0, vctx0, "synthetic")
    for key in watchdog.counters:
        total = sum(per_hart[key] for per_hart in watchdog.hart_counters)
        assert total == watchdog.counters[key], key
