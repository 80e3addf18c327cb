"""Platform configurations and the cycle cost model."""

import dataclasses

import pytest

from repro.hart.cycles import (
    GENERIC_CYCLES,
    PREMIER_P550_CYCLES,
    TIMEBASE_FREQUENCY,
    VISIONFIVE2_CYCLES,
    cycle_model_for,
    cycles_to_mtime,
    mtime_to_cycles,
)
from repro.spec.platform import (
    PLATFORMS,
    PREMIER_P550,
    QEMU_VIRT,
    RVA23_MACHINE,
    VISIONFIVE2,
    PlatformConfig,
)


class TestPlatformConfig:
    def test_registry_complete(self):
        assert {"visionfive2", "premier-p550", "rva23-reference",
                "qemu-virt"} <= set(PLATFORMS)

    def test_table3_characteristics(self):
        assert VISIONFIVE2.num_harts == 4
        assert VISIONFIVE2.frequency_hz == 1_500_000_000
        assert PREMIER_P550.frequency_hz == 1_800_000_000
        assert PREMIER_P550.ram_bytes == 16 * 1024 ** 3

    def test_feature_matrix(self):
        assert not VISIONFIVE2.has_hw_misaligned
        assert PREMIER_P550.has_hw_misaligned
        assert not VISIONFIVE2.has_h_extension
        assert PREMIER_P550.has_h_extension
        assert RVA23_MACHINE.has_sstc and RVA23_MACHINE.has_hw_time_csr

    def test_vendor_csrs_on_p550_only(self):
        assert PREMIER_P550.vendor_csrs == (0x7C0, 0x7C1, 0x7C2, 0x7C3)
        assert VISIONFIVE2.vendor_csrs == ()

    def test_with_overrides(self):
        modified = VISIONFIVE2.with_overrides(pmp_count=16)
        assert modified.pmp_count == 16
        assert modified.frequency_hz == VISIONFIVE2.frequency_hz
        assert VISIONFIVE2.pmp_count == 8  # original untouched

    def test_invalid_pmp_count_rejected(self):
        with pytest.raises(ValueError):
            PlatformConfig(pmp_count=65)

    def test_invalid_hart_count_rejected(self):
        with pytest.raises(ValueError):
            PlatformConfig(num_harts=0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            VISIONFIVE2.pmp_count = 4

    def test_default_ram_covers_canonical_layout(self):
        from repro.system import memory_regions

        regions = memory_regions(QEMU_VIRT)
        assert regions["enclave"].end <= QEMU_VIRT.ram_base + min(
            QEMU_VIRT.ram_bytes, 1 << 32
        )


class TestCycleModel:
    def test_lookup_by_platform(self):
        assert cycle_model_for(VISIONFIVE2) is VISIONFIVE2_CYCLES
        assert cycle_model_for(PREMIER_P550) is PREMIER_P550_CYCLES
        assert cycle_model_for(QEMU_VIRT) is GENERIC_CYCLES

    def test_paper_calibration_shape(self):
        """Table 4's inversion is encoded in the model parameters."""
        # P550 retires ordinary instructions faster...
        assert PREMIER_P550_CYCLES.instruction < VISIONFIVE2_CYCLES.instruction
        # ...but pays more for TLB flushes (world switches).
        assert PREMIER_P550_CYCLES.tlb_flush > VISIONFIVE2_CYCLES.tlb_flush

    def test_time_conversions_roundtrip(self):
        cycles = 3_000_000
        ticks = cycles_to_mtime(cycles, VISIONFIVE2.frequency_hz)
        assert ticks == cycles * TIMEBASE_FREQUENCY // VISIONFIVE2.frequency_hz
        back = mtime_to_cycles(ticks, VISIONFIVE2.frequency_hz)
        assert abs(back - cycles) <= VISIONFIVE2.frequency_hz // TIMEBASE_FREQUENCY

    def test_costs_positive(self):
        for model in (VISIONFIVE2_CYCLES, PREMIER_P550_CYCLES, GENERIC_CYCLES):
            assert model.instruction > 0
            assert model.trap_entry > 0
            assert model.tlb_flush > 0
            assert model.xret > 0


class TestTrapStats:
    def test_counters_and_events(self):
        from repro.hart.stats import TrapStats, cause_name
        from repro.isa.constants import IRQ_MTI, TrapCause

        stats = TrapStats()
        stats.record_trap(hart=0, cause=TrapCause.ECALL_FROM_S,
                          is_interrupt=False, from_mode=None, mtime=10)
        stats.annotate_last("firmware", detail="sbi:test")
        stats.record_trap(hart=0, cause=IRQ_MTI, is_interrupt=True,
                          from_mode=None, mtime=20)
        assert stats.total_traps == 2
        assert stats.trap_counts["ECALL_FROM_S"] == 1
        assert stats.handler_counts["firmware"] == 1
        assert stats.detail_counts()["sbi:test"] == 1
        assert cause_name(IRQ_MTI, True) == "irq:MACHINE_TIMER"

    def test_reset(self):
        from repro.hart.stats import TrapStats
        from repro.isa.constants import TrapCause

        stats = TrapStats()
        stats.record_trap(hart=0, cause=TrapCause.BREAKPOINT,
                          is_interrupt=False, from_mode=None, mtime=0)
        stats.note_world_switch(0, "enter-os", 0)
        stats.reset()
        assert stats.total_traps == 0
        assert stats.world_switches == 0
        assert not stats.events

    def test_events_can_be_disabled(self):
        from repro.hart.stats import TrapStats
        from repro.isa.constants import TrapCause

        stats = TrapStats(keep_events=False)
        stats.record_trap(hart=0, cause=TrapCause.BREAKPOINT,
                          is_interrupt=False, from_mode=None, mtime=0)
        assert stats.total_traps == 1
        assert not stats.events
