"""Watchdog recovery tests: retry, quarantine, and the OS fallback path.

These drive real boots of adversarially-modified firmware through the
full monitor stack, so recovery is tested exactly as chaos runs hit it.
"""

import pytest

from repro.core import watchdog as watchdog_module
from repro.core.config import MiralisConfig
from repro.core.miralis import Miralis
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.firmware.opensbi import OpenSbiFirmware
from repro.hart.binary import BinaryProgram
from repro.hart.machine import Machine
from repro.hart.program import FirmwareRecovered
from repro.isa import constants as c
from repro.isa.asm import Assembler
from repro.policy.default import DefaultPolicy
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized, memory_regions


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


class WedgedBootFirmware(OpenSbiFirmware):
    """Firmware that wedges forever during boot: an infinite CSR loop."""

    def boot(self, ctx):
        while True:
            ctx.csrr(0x305)  # each read traps and burns trap budget


class PanickyFirmware(OpenSbiFirmware):
    """Firmware that panics on the Nth SBI call, then behaves."""

    def __init__(self, *args, panic_after: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        self.panic_after = panic_after
        self.sbi_calls = 0

    def dispatch_sbi(self, ctx, call):
        self.sbi_calls += 1
        if self.sbi_calls == self.panic_after:
            self.panic(ctx, "synthetic failure")
        return super().dispatch_sbi(ctx, call)


class AlwaysPanicFirmware(OpenSbiFirmware):
    """Firmware that panics on *every* SBI call after boot."""

    def dispatch_sbi(self, ctx, call):
        # When the watchdog recovers, panic() does not return; when it
        # cannot (watchdog off), the machine is halted and the return
        # value is irrelevant — but must still be a valid SbiRet.
        from repro.sbi.constants import SbiError
        from repro.sbi.types import SbiRet

        self.panic(ctx, "hopeless")
        return SbiRet.failure(SbiError.ERR_FAILED)


def _checkpoint_workload(flag):
    def workload(kernel, ctx):
        t = kernel.read_time(ctx)
        ctx.store(kernel.region.base + 0x8000, t, size=8)
        flag.append(True)

    return workload


class TestBootRecovery:
    def test_wedged_boot_quarantines_cleanly(self):
        system = build_virtualized(
            VISIONFIVE2,
            firmware_class=WedgedBootFirmware,
            miralis_config=_watchdog_config(),
        )
        reason = system.run()
        watchdog = system.miralis.watchdog
        assert "firmware quarantined" in reason
        assert watchdog.quarantined[0]
        # Budget detection fired once per attempt: initial + retries.
        assert watchdog.counters["detect:trap-budget"] == 3
        assert watchdog.counters["retries"] == 2
        assert watchdog.counters["quarantines"] == 1

    def test_boot_panic_retries_are_bounded(self, monkeypatch):
        monkeypatch.setattr(watchdog_module, "MAX_FIRMWARE_RETRIES", 0)
        system = build_virtualized(
            VISIONFIVE2,
            firmware_class=WedgedBootFirmware,
            miralis_config=_watchdog_config(),
        )
        reason = system.run()
        assert "firmware quarantined" in reason
        assert system.miralis.watchdog.counters["retries"] == 0


def _spy_traps_at_detection(watchdog) -> list:
    """Record the activation's vM-mode trap count at every recovery."""
    seen = []
    recover = watchdog.recover

    def spy(hart, vctx, reason):
        seen.append(watchdog._vm_traps[hart.hartid])
        recover(hart, vctx, reason)

    watchdog.recover = spy
    return seen


def _csr_loop_image(base: int) -> bytes:
    """``1: csrr t0, mscratch; j 1b`` — traps at one pc, but the jump
    retires between the traps: a loop that makes progress."""
    asm = Assembler(base=base)
    asm.label("loop")
    asm.csrr("t0", c.CSR_MSCRATCH)
    asm.j("loop")
    return asm.binary()


class TestTrapStorm:
    def test_stalled_instruction_ends_in_trap_storm(self):
        """A firmware re-executing one trapping instruction is caught by
        the storm detector after ``max_fault_repeats`` repeats, long
        before the trap budget, in every activation."""
        system = build_virtualized(
            VISIONFIVE2,
            miralis_config=_watchdog_config(),
        )
        stall = FaultPlan("stall-now", (FaultSpec("stall"),))
        system.machine.install_fault_injector(FaultInjector(stall, seed=0))
        watchdog = system.miralis.watchdog
        traps_at_detection = _spy_traps_at_detection(watchdog)
        reason = system.run()
        assert "firmware quarantined" in reason
        assert watchdog.counters["detect:trap-storm"] == 3
        assert watchdog.counters["detect:trap-budget"] == 0
        repeats = watchdog_module.MAX_FAULT_REPEATS
        assert traps_at_detection == [repeats + 1] * 3

    def test_progress_at_one_pc_ends_in_trap_budget(self):
        """A CSR loop traps at one pc with the same cause and mtval, but
        retires its jump between traps: only the budget may end it."""
        machine = Machine(VISIONFIVE2)
        regions = memory_regions(VISIONFIVE2)
        blob = BinaryProgram("csr-loop", regions["firmware"], machine,
                             _csr_loop_image(regions["firmware"].base))
        miralis = Miralis(machine, regions["miralis"], blob,
                          _watchdog_config(), DefaultPolicy())
        machine.register(blob)
        machine.register(miralis)
        watchdog = miralis.watchdog
        traps_at_detection = _spy_traps_at_detection(watchdog)
        reason = machine.boot(entry=miralis.region.base)
        assert "firmware quarantined" in reason
        assert watchdog.counters["detect:trap-budget"] == 3
        assert watchdog.counters["detect:trap-storm"] == 0
        budget = watchdog_module.VM_TRAP_BUDGET
        assert traps_at_detection == [budget + 1] * 3

    def test_interrupt_between_identical_traps_resets_the_count(self):
        system = build_virtualized(VISIONFIVE2,
                                   miralis_config=_watchdog_config())
        watchdog = system.miralis.watchdog
        hart = system.machine.harts[0]
        vctx = system.miralis.vctx[0]
        watchdog.arm_boot(hart, vctx)
        repeats = watchdog_module.MAX_FAULT_REPEATS

        def rerun_trapping_instruction():
            hart.instret += 1
            watchdog.note_vm_trap(hart, vctx, c.TrapCause.ILLEGAL_INSTRUCTION,
                                  0x8000_0100, 0x3402_72F3)

        # One trap plus ``repeats - 1`` repeats: one short of a storm.
        for _ in range(repeats):
            rerun_trapping_instruction()
        watchdog.note_vm_trap(hart, vctx, c.INTERRUPT_BIT | 7, 0x8000_0100, 0)
        for _ in range(repeats):
            rerun_trapping_instruction()
        assert watchdog.counters["detect:trap-storm"] == 0
        with pytest.raises(FirmwareRecovered):
            rerun_trapping_instruction()
        assert watchdog.counters["detect:trap-storm"] == 1


class TestTrapRecovery:
    def test_transient_panic_recovers_and_os_completes(self):
        flag = []
        system = build_virtualized(
            VISIONFIVE2,
            firmware_class=PanickyFirmware,
            workload=_checkpoint_workload(flag),
            miralis_config=_watchdog_config(),
            firmware_kwargs={"panic_after": 3},
        )
        reason = system.run()
        watchdog = system.miralis.watchdog
        assert flag, "OS never reached its checkpoint"
        assert "sbi system reset" in reason
        assert watchdog.counters["detect:panic"] >= 1
        assert watchdog.counters["retries"] >= 1
        assert not watchdog.quarantined[0]

    def test_hopeless_firmware_quarantined_os_keeps_running(self):
        flag = []
        system = build_virtualized(
            VISIONFIVE2,
            firmware_class=AlwaysPanicFirmware,
            workload=_checkpoint_workload(flag),
            miralis_config=_watchdog_config(),
        )
        reason = system.run()
        watchdog = system.miralis.watchdog
        assert watchdog.quarantined[0]
        # The OS survived on Miralis-served default SBI responses and shut
        # down through the monitor's SRST fallback.
        assert flag
        assert "sbi system reset" in reason
        assert "[firmware quarantined]" in reason
        assert watchdog.counters["quarantined-served"] >= 1

    def test_recovery_surfaces_in_trap_log_and_counters(self):
        system = build_virtualized(
            VISIONFIVE2,
            firmware_class=AlwaysPanicFirmware,
            workload=_checkpoint_workload([]),
            miralis_config=_watchdog_config(),
        )
        system.run()
        stats = system.machine.stats
        watchdog = system.miralis.watchdog
        # Recovery decisions are counted by the watchdog: activation
        # rollback rewinds handler annotations with the abandoned trap
        # events, so the trap log alone under-counts them.
        assert watchdog.counters["recoveries"] >= 1
        assert watchdog.counters["quarantines"] >= 1
        # The quarantined hart's OS keeps being served by the monitor,
        # which surfaces in the (surviving) trap log.
        assert stats.handler_counts.get("miralis-quarantine", 0) >= 1
        assert watchdog.quarantine_records


class TestWatchdogDisabled:
    def test_panic_halts_when_watchdog_off(self):
        system = build_virtualized(
            VISIONFIVE2,
            firmware_class=AlwaysPanicFirmware,
            workload=_checkpoint_workload([]),
            miralis_config=_watchdog_config(watchdog_enabled=False),
        )
        reason = system.run()
        assert "firmware panic" in reason
        assert system.miralis.watchdog is None

    def test_default_config_has_no_watchdog(self):
        system = build_virtualized(VISIONFIVE2)
        assert system.miralis.watchdog is None


class TestZephyrRecovery:
    def test_zephyr_panic_routes_through_watchdog(self):
        from repro.firmware.zephyr import ZephyrFirmware

        class BrokenZephyr(ZephyrFirmware):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._failures = [0]

            def handle_trap(self, ctx):
                # Fail the first tick, then behave: exercises one retry.
                if self._failures[0] < 1:
                    self._failures[0] += 1
                    hook = self.machine.firmware_panic_hook
                    if hook is not None:
                        hook(ctx.hart, "synthetic tick failure")
                    self.machine.halt("zephyr: unexpected trap")
                    return
                super().handle_trap(ctx)

        machine = Machine(VISIONFIVE2)
        regions = memory_regions(VISIONFIVE2)
        zephyr = BrokenZephyr("zephyr", regions["firmware"], machine,
                              num_ticks=3)
        miralis = Miralis(
            machine=machine,
            region=regions["miralis"],
            firmware=zephyr,
            config=_watchdog_config(),
            policy=DefaultPolicy(),
        )
        machine.register(zephyr)
        machine.register(miralis)
        reason = machine.boot(entry=miralis.region.base)
        assert "workload complete" in reason
        assert miralis.watchdog.counters["detect:panic"] == 1
        assert miralis.watchdog.counters["retries"] == 1
