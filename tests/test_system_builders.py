"""System assembly: memory layout, builders, and the System facade."""

import pytest

from repro.firmware.opensbi import (
    OpenSbiFirmware,
    PremierP550Firmware,
    VisionFive2Firmware,
)
from repro.spec.platform import PREMIER_P550, QEMU_VIRT, VISIONFIVE2
from repro.system import (
    System,
    build_native,
    build_virtualized,
    memory_regions,
)


class TestMemoryLayout:
    def test_regions_disjoint(self):
        regions = list(memory_regions(VISIONFIVE2).values())
        for i, first in enumerate(regions):
            for second in regions[i + 1:]:
                assert first.end <= second.base or second.end <= first.base, \
                    (first, second)

    def test_regions_in_ram(self):
        for region in memory_regions(VISIONFIVE2).values():
            assert region.base >= VISIONFIVE2.ram_base
            assert region.end <= VISIONFIVE2.ram_base + min(
                VISIONFIVE2.ram_bytes, 1 << 32
            )

    def test_expected_names(self):
        assert set(memory_regions(VISIONFIVE2)) == {
            "firmware", "miralis", "kernel", "enclave"
        }

    def test_napot_compatible_alignment(self):
        """Guard regions must be NAPOT-encodable (Figure 5's entries)."""
        from repro.isa.bits import napot_encode

        for name in ("firmware", "miralis"):
            region = memory_regions(VISIONFIVE2)[name]
            napot_encode(region.base, region.size)  # must not raise


class TestBuilders:
    def test_default_vendor_firmware_per_platform(self):
        assert isinstance(build_native(VISIONFIVE2).firmware,
                          VisionFive2Firmware)
        assert isinstance(build_native(PREMIER_P550).firmware,
                          PremierP550Firmware)
        assert type(build_native(QEMU_VIRT).firmware) is OpenSbiFirmware

    def test_firmware_class_override(self):
        from repro.firmware.rustsbi import RustSbiFirmware

        system = build_native(VISIONFIVE2, firmware_class=RustSbiFirmware)
        assert isinstance(system.firmware, RustSbiFirmware)

    def test_native_has_no_monitor(self):
        system = build_native(VISIONFIVE2)
        assert not system.virtualized
        assert system.miralis is None

    def test_virtualized_registers_three_regions(self):
        system = build_virtualized(VISIONFIVE2)
        machine = system.machine
        assert machine.owner_of(system.firmware.region.base) is system.firmware
        assert machine.owner_of(system.miralis.region.base) is system.miralis
        assert machine.owner_of(system.kernel.region.base) is system.kernel

    def test_default_policy(self):
        from repro.policy.default import DefaultPolicy

        system = build_virtualized(VISIONFIVE2)
        assert isinstance(system.policy, DefaultPolicy)

    def test_offload_flag_propagates(self):
        assert build_virtualized(VISIONFIVE2).miralis.config.offload_enabled
        assert not build_virtualized(
            VISIONFIVE2, offload=False
        ).miralis.config.offload_enabled

    def test_vendor_csrs_are_emulated_on_the_virtual_context(self):
        """A vendor CSR written and read back from vM-mode lands in the
        hart's ``vctx.vendor``, which ``PlatformConfig.vendor_csrs``
        populates; a platform without vendor CSRs has none."""
        readback = []

        class ReadBackP550(PremierP550Firmware):
            def platform_init(self, ctx, hartid):
                super().platform_init(ctx, hartid)
                ctx.csrw(0x7C0, 0x5A5A)
                readback.append(ctx.csrr(0x7C0))

        p550 = build_virtualized(PREMIER_P550, firmware_class=ReadBackP550)
        p550.run()
        assert readback == [0x5A5A]
        assert p550.miralis.vctx[0].vendor == {
            0x7C0: 0x5A5A, 0x7C1: 0x1, 0x7C2: 0x1, 0x7C3: 0x1}
        vf2 = build_virtualized(VISIONFIVE2)
        vf2.run()
        assert all(vctx.vendor == {} for vctx in vf2.miralis.vctx)

    def test_run_boots_from_the_right_entry(self):
        native = build_native(VISIONFIVE2)
        native.run()
        assert native.machine.halted
        virtualized = build_virtualized(VISIONFIVE2)
        virtualized.run()
        assert virtualized.machine.halted
        # The virtualized boot entered through the monitor.
        assert virtualized.miralis._booted[0]

    def test_firmware_kwargs_forwarded(self):
        from repro.firmware.malicious import MaliciousFirmware

        system = build_native(
            VISIONFIVE2,
            firmware_class=MaliciousFirmware,
            firmware_kwargs={"attack": "write_os_memory"},
        )
        assert system.firmware.attack == "write_os_memory"


class TestSystemFacade:
    def test_console_property(self):
        system = build_native(VISIONFIVE2)
        system.run()
        assert "OpenSBI" in system.console_output

    def test_is_dataclass_like(self):
        system = build_native(VISIONFIVE2)
        assert isinstance(system, System)
        assert system.kernel is not None


class TestPolicyInterfaceDefaults:
    def test_all_hooks_continue(self):
        from repro.policy.interface import PolicyAction, PolicyModule

        policy = PolicyModule()
        assert policy.on_firmware_ecall(None, None) == PolicyAction.CONTINUE
        assert policy.on_firmware_trap(None, None, None) == PolicyAction.CONTINUE
        assert policy.on_switch_from_firmware(None, None) == PolicyAction.CONTINUE
        assert policy.on_os_ecall(None, None, None) == PolicyAction.CONTINUE
        assert policy.on_os_trap(None, None, None) == PolicyAction.CONTINUE
        assert policy.on_switch_from_os(None, None) == PolicyAction.CONTINUE
        assert policy.on_interrupt(None, None, 0) == PolicyAction.CONTINUE

    def test_no_pmp_claim_by_default(self):
        from repro.core.vcpu import World
        from repro.policy.interface import PolicyModule

        policy = PolicyModule()
        assert policy.num_pmp_entries() == 0
        assert policy.pmp_entries(World.FIRMWARE, 0) == []
        assert policy.allow_firmware_default_access()

    def test_exactly_seven_hooks(self):
        """§5.1: 'The interface consists in seven optional methods.'"""
        from repro.policy.interface import PolicyModule

        hooks = [name for name in vars(PolicyModule)
                 if name.startswith("on_")]
        assert len(hooks) == 7
