"""Unit tests for the deterministic fault injector and the canned plans."""

import pytest

from repro.faults import (
    CHAOS_SUITE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PLANS,
    random_plan,
    resolve_plan,
)
from repro.isa import constants as c
from repro.spec.step import BusError


def _drive(injector: FaultInjector, rounds: int = 200) -> list:
    """A fixed decision sequence touching every site; returns injections."""
    for i in range(rounds):
        injector.corrupt_vcsr_write(0, c.CSR_MTVEC if i % 3 else c.CSR_MIE, i)
        injector.mmio_error("uart" if i % 2 else "clint",
                            "write" if i % 4 else "read", i % 32)
        injector.flip_instruction(0, "csrrw")
        injector.stall_firmware(0)
    return list(injector.injections)


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("teleport")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("mmio", probability=1.5)

    def test_matches_filters(self):
        spec = FaultSpec("mmio", device="uart", kind="write")
        assert spec.matches(device="uart", kind="write", csr=None, hart=0)
        assert not spec.matches(device="clint", kind="write")
        assert not spec.matches(device="uart", kind="read")


class TestDeterminism:
    @pytest.mark.parametrize("plan_name", list(CHAOS_SUITE))
    def test_same_seed_same_injections(self, plan_name):
        plan = resolve_plan(plan_name)
        a = _drive(FaultInjector(plan, seed=42))
        b = _drive(FaultInjector(plan, seed=42))
        assert a == b

    def test_different_seed_may_differ_but_is_self_consistent(self):
        plan = resolve_plan("transient-mmio")
        for seed in (1, 2, 3):
            assert (_drive(FaultInjector(plan, seed=seed))
                    == _drive(FaultInjector(plan, seed=seed)))

    def test_random_plan_is_deterministic(self):
        assert random_plan(7) == random_plan(7)
        assert random_plan(7).name == "random-7"


class TestSchedules:
    def test_after_skips_early_decisions(self):
        plan = FaultPlan("t", (FaultSpec("stall", after=5),))
        injector = FaultInjector(plan)
        fired = [injector.stall_firmware(0) for _ in range(8)]
        assert fired == [False] * 5 + [True] * 3

    def test_limit_caps_injections(self):
        plan = FaultPlan("t", (FaultSpec("decode", limit=2),))
        injector = FaultInjector(plan)
        fired = [injector.flip_instruction(0, "mret") for _ in range(6)]
        assert fired.count(True) == 2 and fired[:2] == [True, True]

    def test_csr_filter(self):
        plan = FaultPlan(
            "t", (FaultSpec("vcsr-write", csr=c.CSR_MTVEC, xor_mask=0xFF),)
        )
        injector = FaultInjector(plan)
        assert injector.corrupt_vcsr_write(0, c.CSR_MIE, 0x10) == 0x10
        assert injector.corrupt_vcsr_write(0, c.CSR_MTVEC, 0x10) == 0x10 ^ 0xFF

    def test_hart_filter(self):
        plan = FaultPlan("t", (FaultSpec("stall", hart=1),))
        injector = FaultInjector(plan)
        assert not injector.stall_firmware(0)
        assert injector.stall_firmware(1)

    def test_corruption_without_mask_flips_one_bit(self):
        plan = FaultPlan("t", (FaultSpec("vcsr-write"),))
        injector = FaultInjector(plan)
        value = injector.corrupt_vcsr_write(0, c.CSR_MSTATUS, 0)
        assert value != 0 and bin(value).count("1") == 1

    def test_injection_events_record_site_and_detail(self):
        plan = FaultPlan("t", (FaultSpec("mmio", device="uart"),))
        injector = FaultInjector(plan)
        assert injector.mmio_error("uart", "write", 0x0)
        (event,) = injector.injections
        assert event.site == "mmio" and "uart:write" in event.detail
        summary = injector.summary()
        assert summary["plan"] == "t" and summary["injections"]


class TestPlans:
    def test_suite_has_at_least_five_plans(self):
        assert len(CHAOS_SUITE) >= 5
        assert all(name in PLANS for name in CHAOS_SUITE)

    def test_resolve_known_unknown_and_passthrough(self):
        assert resolve_plan("none").name == "none"
        plan = FaultPlan("mine", ())
        assert resolve_plan(plan) is plan
        assert resolve_plan("random", seed=3).name == "random-3"
        with pytest.raises(ValueError, match="unknown fault plan"):
            resolve_plan("no-such-plan")

    def test_control_plan_never_fires(self):
        assert _drive(FaultInjector(resolve_plan("none"), seed=1)) == []


class TestDeviceHooks:
    def test_device_hook_raises_bus_error_through_device(self):
        from repro.hart.machine import Machine
        from repro.spec.platform import VISIONFIVE2

        machine = Machine(VISIONFIVE2)
        plan = FaultPlan("t", (FaultSpec("mmio", device="uart", limit=1),))
        machine.install_fault_injector(FaultInjector(plan))
        with pytest.raises(BusError):
            machine.uart.write(0, 1, 0x41)
        # The limit is exhausted: subsequent accesses succeed.
        machine.uart.write(0, 1, 0x42)
        assert "B" in machine.uart.text()

    def test_uninstall_clears_hooks(self):
        from repro.hart.machine import Machine
        from repro.spec.platform import VISIONFIVE2

        machine = Machine(VISIONFIVE2)
        plan = FaultPlan("t", (FaultSpec("mmio"),))
        machine.install_fault_injector(FaultInjector(plan))
        machine.install_fault_injector(None)
        machine.uart.write(0, 1, 0x41)  # must not raise
        assert machine.clint.fault_hook is None


class TestSiteFilters:
    """A filter its site never supplies can never match, so a spec that
    sets one would silently never fire; construction rejects it."""

    @pytest.mark.parametrize("site", ["vcsr-write", "decode", "stall"])
    @pytest.mark.parametrize("field, value", [("device", "uart"),
                                              ("kind", "read")])
    def test_mmio_filters_rejected_outside_mmio(self, site, field, value):
        with pytest.raises(ValueError, match=field):
            FaultSpec(site, **{field: value})

    @pytest.mark.parametrize("site", ["mmio", "decode", "stall"])
    @pytest.mark.parametrize("field, value", [("csr", c.CSR_MTVEC),
                                              ("xor_mask", 0xFF)])
    def test_csr_filters_rejected_outside_vcsr_write(self, site, field, value):
        with pytest.raises(ValueError, match=field):
            FaultSpec(site, **{field: value})

    @pytest.mark.parametrize("device", ["clint", "plic", "uart"])
    def test_hart_rejected_on_physical_device_mmio(self, device):
        with pytest.raises(ValueError, match="hart"):
            FaultSpec("mmio", device=device, hart=0)

    @pytest.mark.parametrize("site, fields", [
        ("mmio", {"device": "vclint", "hart": 0}),
        ("mmio", {"hart": 1}),
        ("mmio", {"device": "uart", "kind": "write"}),
        ("vcsr-write", {"csr": c.CSR_MTVEC, "xor_mask": 0xFF, "hart": 0}),
        ("decode", {"hart": 0}),
        ("stall", {"hart": 0}),
    ])
    def test_supplied_filters_accepted(self, site, fields):
        spec = FaultSpec(site, **fields)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_random_plans_set_only_supplied_filters(self):
        # Canned plans are built at import; random plans build here.
        for seed in range(500):
            assert random_plan(seed).specs

    @pytest.mark.parametrize("firmware", ["opensbi", "zephyr"])
    def test_vclint_hart_filter_fires(self, firmware):
        from repro.faults.chaos import run_chaos

        for spec in (FaultSpec("mmio", device="vclint", hart=0, limit=1),
                     FaultSpec("mmio", hart=0, limit=1)):
            result = run_chaos(firmware, FaultPlan("t", (spec,)), seed=1)
            assert result.ok
            assert [detail.split(":")[0]
                    for _site, _index, detail in result.injection_log] == [
                        "vclint"]

    def test_vclint_hart_filter_skips_other_harts(self):
        from repro.faults.chaos import run_chaos

        spec = FaultSpec("mmio", device="vclint", hart=1, limit=1)
        result = run_chaos("opensbi", FaultPlan("t", (spec,)), seed=1)
        assert result.ok and result.injection_log == ()
