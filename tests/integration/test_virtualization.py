"""Q1 (§8.2): Miralis virtualizes unmodified firmware.

Each firmware model runs the same code natively in M-mode and deprivileged
in vM-mode; behaviour must match.  RustSBI's self-test and Zephyr's thread
suite pass virtualized, as the paper reports.
"""

import pytest

from repro.core.vcpu import World
from repro.firmware.rustsbi import RustSbiFirmware
from repro.firmware.zephyr import ZephyrFirmware
from repro.hart.machine import Machine
from repro.hart.program import Region
from repro.isa import constants as c
from repro.sbi import constants as sbi
from repro.spec.platform import PREMIER_P550, VISIONFIVE2
from repro.system import build_native, build_virtualized, memory_regions


def standard_workload(results: dict):
    def workload(kernel, ctx):
        results["impl"] = kernel.sbi_impl_id
        t0 = kernel.read_time(ctx)
        ctx.compute(5_000)
        t1 = kernel.read_time(ctx)
        results["time_monotone"] = t1 > t0
        kernel.print(ctx, "payload\n")
        error, _ = kernel.sbi_send_ipi(ctx, 0b1, 0)
        results["ipi_error"] = error
        ctx.csrr(c.CSR_SSCRATCH)  # delivery point for the self-IPI
        results["ssi"] = kernel.software_interrupts
        base = kernel.region.base + 0x6000
        ctx.store(base + 1, 0xCAFEBABE, size=4)
        results["misaligned"] = ctx.load(base + 1, size=4)
        now = kernel.read_time(ctx)
        kernel.sbi_set_timer(ctx, now + 50)
        ctx.csrs(c.CSR_SIE, c.MIP_STIP)
        ticks = kernel.timer_ticks
        while kernel.timer_ticks == ticks:
            ctx.compute(200)
            ctx.csrr(c.CSR_SSCRATCH)
        results["timer_fired"] = True

    return workload


def run_deployment(builder, platform, **kwargs):
    results = {}
    system = builder(platform, workload=standard_workload(results), **kwargs)
    reason = system.run()
    results["halt"] = reason
    results["console_payload"] = "payload" in system.console_output
    return system, results


class TestOsTransparency:
    """The OS observes identical behaviour native and virtualized (Q1)."""

    @pytest.mark.parametrize("platform", [VISIONFIVE2, PREMIER_P550],
                             ids=["vf2", "p550"])
    @pytest.mark.parametrize("offload", [True, False],
                             ids=["offload", "no-offload"])
    def test_virtualized_matches_native(self, platform, offload):
        _, native = run_deployment(build_native, platform)
        _, virtual = run_deployment(build_virtualized, platform, offload=offload)
        assert native == virtual

    def test_firmware_never_runs_in_m_mode(self):
        """The second-stage firmware executes exclusively deprivileged."""
        modes = []
        system = build_virtualized(VISIONFIVE2)
        original = system.firmware.handle_trap

        def spying_handle_trap(ctx):
            modes.append(ctx.hart.state.mode)
            return original(ctx)

        system.firmware.handle_trap = spying_handle_trap
        original_boot = system.firmware.boot

        def spying_boot(ctx):
            modes.append(ctx.hart.state.mode)
            return original_boot(ctx)

        system.firmware.boot = spying_boot
        system.run()
        assert modes  # firmware actually ran
        assert set(modes) == {c.U_MODE}

    def test_firmware_believes_it_is_m_mode(self):
        """Inside vM-mode the firmware reads M-level CSRs successfully."""
        seen = {}

        class IntrospectingFirmware(RustSbiFirmware):
            def platform_init(self, ctx, hartid):
                seen["mhartid"] = ctx.csrr(c.CSR_MHARTID)
                seen["misa"] = ctx.csrr(c.CSR_MISA)
                seen["physical_mode"] = ctx.hart.state.mode

        system = build_virtualized(
            VISIONFIVE2, firmware_class=IntrospectingFirmware
        )
        system.run()
        assert seen["physical_mode"] == c.U_MODE
        assert seen["misa"] == VISIONFIVE2.misa
        assert seen["mhartid"] == 0

    def test_no_overhead_during_direct_execution(self):
        """§3.4: a VFM introduces no traps during pure OS compute."""
        def workload(kernel, ctx):
            kernel.machine.stats.reset()
            ctx.compute(1_000_000)
            kernel.machine.compute_traps = kernel.machine.stats.total_traps

        system = build_virtualized(VISIONFIVE2, workload=workload)
        system.run()
        assert system.machine.compute_traps == 0


class TestRustSbiVirtualized:
    def test_self_test_passes_virtualized(self):
        failures = {}

        class TestedRustSbi(RustSbiFirmware):
            def boot(self, ctx):
                ctx.csrw(c.CSR_MTVEC, self.trap_vector)
                failures["list"] = self.self_test(ctx)
                self.machine.halt("self-test complete")

        system = build_virtualized(VISIONFIVE2, firmware_class=TestedRustSbi)
        reason = system.run()
        assert "self-test complete" in reason
        assert failures["list"] == []
        # The test suite genuinely exercised the emulator.
        assert system.machine.stats.firmware_emulations > 20


class TestZephyrVirtualized:
    def test_suite_passes_virtualized(self):
        from repro.core.config import MiralisConfig
        from repro.core.miralis import Miralis
        from repro.policy.default import DefaultPolicy

        machine = Machine(VISIONFIVE2)
        regions = memory_regions(VISIONFIVE2)
        zephyr = ZephyrFirmware("zephyr", regions["firmware"], machine,
                                num_ticks=5)
        miralis = Miralis(
            machine=machine,
            region=regions["miralis"],
            firmware=zephyr,
            config=MiralisConfig(),
            policy=DefaultPolicy(),
        )
        machine.register(zephyr)
        machine.register(miralis)
        reason = machine.boot(entry=miralis.region.base)
        assert "complete" in reason
        assert zephyr.suite_passed(), zephyr.test_log
        # The RTOS timer ticks were delivered as virtual M interrupts.
        assert zephyr.ticks >= 5
        assert machine.stats.firmware_emulations > 0


class TestClosedBinaryFirmware:
    """§8.2's Star64 experiment: the firmware need not be open/known.

    Modelled by a firmware subclass whose behaviour the monitor has no
    special knowledge of (an opaque vendor blob with odd CSR habits).
    """

    def test_opaque_firmware_virtualizes(self):
        class OpaqueVendorBlob(RustSbiFirmware):
            BANNER = "proprietary blob 164kB"

            def platform_init(self, ctx, hartid):
                # Unusual but legal M-mode behaviour: scratch-register
                # dances and repeated delegation rewrites.
                for i in range(8):
                    ctx.csrw(c.CSR_MSCRATCH, i * 0x1111)
                    ctx.csrr(c.CSR_MSCRATCH)
                ctx.csrw(c.CSR_MEDELEG, 0)
                ctx.csrw(c.CSR_MEDELEG, (1 << 64) - 1)

        results = {}
        system = build_virtualized(
            VISIONFIVE2,
            firmware_class=OpaqueVendorBlob,
            workload=standard_workload(results),
        )
        system.run()
        assert results["time_monotone"]
        assert results["timer_fired"]


class TestWorldSwitchAccounting:
    def test_offload_reduces_world_switches(self):
        def workload(kernel, ctx):
            for _ in range(50):
                kernel.read_time(ctx)

        with_offload = build_virtualized(VISIONFIVE2, workload=workload)
        with_offload.run()
        without = build_virtualized(VISIONFIVE2, workload=workload,
                                    offload=False)
        without.run()
        assert with_offload.machine.stats.world_switches < \
            without.machine.stats.world_switches
        assert with_offload.miralis.offload.hits["time-read"] >= 50

    def test_world_state_tracks_execution(self):
        seen = {}

        def workload(kernel, ctx):
            seen["world"] = kernel.machine and None
            miralis = system.miralis
            seen["during_os"] = miralis.world[0]

        system = build_virtualized(VISIONFIVE2, workload=workload)
        system.run()
        assert seen["during_os"] == World.OS
