"""AttackOutcome bookkeeping under graceful (non-halting) containment.

The original security suite asserts containment with
``halt_on_violation=True`` (bring-up behaviour: the machine stops).  This
suite asserts the *production* behaviour introduced with the watchdog:
the policy denies the access mid-SBI, the monitor neutralizes it, the
machine keeps running — and the firmware-side ``AttackOutcome`` is still
recorded (attempted, not succeeded), while the OS completes its workload.
"""

import pytest

from repro.core.config import MiralisConfig
from repro.firmware.malicious import MaliciousFirmware, TRIGGER_EID
from repro.policy.sandbox import FirmwareSandboxPolicy
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized, memory_regions

OS_SECRET = 0xC0FFEE_15_5EC12E7

#: The three attacks the issue calls out: direct reads/writes of OS
#: memory and a PMP window remap, all denied mid-SBI by the sandbox.
MEMORY_ATTACKS = ("read_os_memory", "write_os_memory", "remap_pmp_window")


def _build(attack: str):
    regions = memory_regions(VISIONFIVE2)
    secret_address = regions["kernel"].base + 0x2000
    completed = []

    def workload(kernel, ctx):
        ctx.store(secret_address, OS_SECRET, size=8)
        kernel.sbi_call(ctx, TRIGGER_EID, 0)
        # Post-attack work: proves the machine survived the denial.
        ctx.store(secret_address + 8, 0x1, size=8)
        completed.append(True)

    system = build_virtualized(
        VISIONFIVE2,
        firmware_class=MaliciousFirmware,
        workload=workload,
        policy=FirmwareSandboxPolicy(
            extra_allowed_regions=[(VISIONFIVE2.uart_base, 0x100)]
        ),
        firmware_kwargs={
            "attack": attack,
            "os_secret_address": secret_address,
            "monitor_address": regions["miralis"].base + 0x100,
        },
        miralis_config=MiralisConfig(
            offload_enabled=False,
            watchdog_enabled=True,
            halt_on_violation=False,
        ),
    )
    return system, secret_address, completed


class TestOutcomeRecordedOnDenial:
    @pytest.mark.parametrize("attack", MEMORY_ATTACKS)
    def test_outcome_recorded_and_contained(self, attack):
        system, _, _ = _build(attack)
        system.run()
        outcome = system.firmware.outcome
        # Even though the policy denied the access mid-SBI, the attempt
        # was recorded and did not succeed.
        assert outcome.attempted, f"{attack} never triggered"
        assert not outcome.succeeded, f"{attack} escaped: {outcome.note}"
        assert system.miralis.violations, "denial left no violation record"

    @pytest.mark.parametrize("attack", MEMORY_ATTACKS)
    def test_machine_survives_denial(self, attack):
        system, secret_address, completed = _build(attack)
        reason = system.run()
        # Graceful containment: no halt-on-violation, the OS finished its
        # workload and shut down normally.
        assert completed, f"OS did not survive {attack} (halt: {reason})"
        assert "sbi system reset" in reason, reason
        assert system.machine.ram.read(secret_address + 8, 8) == 0x1

    def test_read_leaks_nothing(self):
        system, _, _ = _build("read_os_memory")
        system.run()
        # The neutralized load feeds the firmware a constant, never the
        # secret.
        assert system.firmware.outcome.leaked_value != OS_SECRET

    def test_write_leaves_os_memory_intact(self):
        system, secret_address, _ = _build("write_os_memory")
        system.run()
        assert system.machine.ram.read(secret_address, 8) == OS_SECRET

    def test_remap_window_does_not_expose_secret(self):
        system, _, _ = _build("remap_pmp_window")
        system.run()
        outcome = system.firmware.outcome
        assert outcome.leaked_value != OS_SECRET

    @pytest.mark.parametrize("attack", MEMORY_ATTACKS)
    def test_violations_counted_by_watchdog(self, attack):
        system, _, _ = _build(attack)
        system.run()
        # Violation storms are bounded per activation; a single denied
        # attack must not trigger recovery, only be neutralized.
        watchdog = system.miralis.watchdog
        assert watchdog is not None
        assert not watchdog.quarantined[0]
