"""Miralis internals exercised through full-system flows."""

import pytest

from repro.core.vcpu import World
from repro.firmware.base import BaseFirmware
from repro.isa import constants as c
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized


class TestVirtualClintThroughFirmware:
    def test_firmware_mtime_read_is_emulated(self):
        """The firmware reading CLINT mtime goes through the vCLINT."""
        system = build_virtualized(VISIONFIVE2)
        system.run()
        assert system.miralis.vclint.accesses > 0

    def test_firmware_timer_programs_physical_clint(self):
        seen = {}

        def workload(kernel, ctx):
            now = kernel.read_time(ctx)
            # Force the firmware (not the fast path) to program the timer.
            miralis = system.miralis
            miralis.config = miralis.config  # (offload disabled below)
            kernel.sbi_set_timer(ctx, now + 123_456)
            seen["virtual"] = miralis.vclint.mtimecmp[0]
            seen["physical"] = kernel.machine.clint.mtimecmp[0]

        system = build_virtualized(VISIONFIVE2, workload=workload,
                                   offload=False)
        system.run()
        assert seen["virtual"] == seen["physical"]
        assert seen["virtual"] != (1 << 64) - 1


class TestVirtualInterruptInjection:
    def test_mti_injected_into_firmware_without_offload(self):
        """The full §4.3 multiplexing loop: OS arms timer via firmware,
        physical MTI arrives, Miralis injects a virtual MTI, the firmware's
        handler raises STIP, the OS's S handler finally runs."""
        seen = {}

        def workload(kernel, ctx):
            machine = kernel.machine
            now = kernel.read_time(ctx)
            kernel.sbi_set_timer(ctx, now + 80)
            ctx.csrs(c.CSR_SIE, c.MIP_STIP)
            before = kernel.timer_ticks
            while kernel.timer_ticks == before:
                ctx.compute(400)
            seen["ticks"] = kernel.timer_ticks - before
            # The injected MTI's event carries the *final* handler: the
            # firmware classified it as irq:7.  The world-switch counter
            # proves it got there by re-injection, not natively.
            seen["world_switches"] = machine.stats.world_switches
            seen["virq"] = [
                event for event in machine.stats.events
                if event.is_interrupt and event.handler == "firmware"
                and event.detail == f"irq:{c.IRQ_MTI}"
            ]

        system = build_virtualized(VISIONFIVE2, workload=workload,
                                   offload=False)
        system.run()
        assert seen["ticks"] >= 1
        assert seen["world_switches"] >= 1
        assert seen["virq"], "the MTI must have been re-injected into vM"

    def test_firmware_wfi_waits_for_virtual_timer(self):
        """vM-mode wfi is emulated: time advances to the virtual deadline."""
        seen = {}

        class WfiFirmware(BaseFirmware):
            BOOT_INIT_INSTRUCTIONS = 0

            def boot(self, ctx):
                machine = self.machine
                ctx.csrw(c.CSR_MTVEC, self.trap_vector)
                now = ctx.load(machine.clint.mtime_address, size=8)
                ctx.store(machine.clint.mtimecmp_address(0), now + 500, size=8)
                ctx.csrw(c.CSR_MIE, c.MIP_MTIP)
                ctx.csrs(c.CSR_MSTATUS, c.MSTATUS_MIE)
                ctx.wfi()
                later = ctx.load(machine.clint.mtime_address, size=8)
                seen["waited"] = later - now
                machine.halt("wfi done")

            def handle_trap(self, ctx):
                ctx.store(
                    self.machine.clint.mtimecmp_address(0), (1 << 64) - 1,
                    size=8,
                )
                ctx.mret()

        system = build_virtualized(VISIONFIVE2, firmware_class=WfiFirmware)
        reason = system.run()
        assert "wfi done" in reason
        assert seen["waited"] >= 500


class TestViolationHandling:
    def test_halt_on_violation_default(self):
        from repro.firmware.malicious import MaliciousFirmware, TRIGGER_EID
        from repro.policy.sandbox import FirmwareSandboxPolicy
        from repro.system import memory_regions

        regions = memory_regions(VISIONFIVE2)

        def workload(kernel, ctx):
            kernel.sbi_call(ctx, TRIGGER_EID, 0)

        system = build_virtualized(
            VISIONFIVE2,
            firmware_class=MaliciousFirmware,
            workload=workload,
            policy=FirmwareSandboxPolicy(
                extra_allowed_regions=[(VISIONFIVE2.uart_base, 0x100)]
            ),
            offload=False,
            firmware_kwargs={
                "attack": "read_os_memory",
                "os_secret_address": regions["kernel"].base + 0x2000,
            },
        )
        reason = system.run()
        assert "denied" in reason
        assert system.miralis.violations

    def test_log_and_continue_mode(self):
        """§5.2's production behaviour: log the violation, neutralize the
        access, keep the machine running."""
        from repro.core.config import MiralisConfig
        from repro.core.miralis import Miralis
        from repro.firmware.malicious import MaliciousFirmware, TRIGGER_EID
        from repro.hart.machine import Machine
        from repro.os_model.kernel import KernelProgram
        from repro.policy.sandbox import FirmwareSandboxPolicy
        from repro.system import memory_regions

        machine = Machine(VISIONFIVE2)
        regions = memory_regions(VISIONFIVE2)
        secret = 0x5EC12E7_BEEF
        seen = {}

        def workload(kernel, ctx):
            ctx.store(regions["kernel"].base + 0x2000, secret, size=8)
            kernel.sbi_call(ctx, TRIGGER_EID, 0)
            seen["alive"] = kernel.read_time(ctx)

        kernel = KernelProgram("kernel", regions["kernel"], machine,
                               workload=workload)
        firmware = MaliciousFirmware(
            "fw", regions["firmware"], machine,
            kernel_entry=kernel.entry_point,
            attack="read_os_memory",
            os_secret_address=regions["kernel"].base + 0x2000,
        )
        miralis = Miralis(
            machine, regions["miralis"], firmware,
            MiralisConfig(halt_on_violation=False),
            FirmwareSandboxPolicy(
                extra_allowed_regions=[(VISIONFIVE2.uart_base, 0x100)]
            ),
        )
        machine.register(firmware)
        machine.register(kernel)
        machine.register(miralis)
        reason = machine.boot(entry=miralis.region.base)
        assert "reset" in reason  # clean shutdown despite the attack
        assert miralis.violations  # ...which was logged
        assert seen["alive"] > 0
        # The blocked load returned an arbitrary value, not the secret.
        assert firmware.outcome.leaked_value != secret


class TestWorldTracking:
    def test_boot_starts_in_firmware_world(self):
        system = build_virtualized(VISIONFIVE2)
        assert system.miralis.world[0] == World.FIRMWARE

    def test_emulation_count_grows_with_boot(self):
        system = build_virtualized(VISIONFIVE2)
        system.run()
        # PMP probing alone costs dozens of emulated CSR instructions.
        assert system.machine.stats.firmware_emulations > 40
