"""State completeness: every field of every stateful component is either
captured by its ``snapshot_state()`` or named here as wiring/derived.

A checkpoint, a watchdog retry and the verification harness all compose
the components' ``snapshot_state``/``restore_state`` pairs, so a field
a pair forgets is silently dropped by all three — a phased chaos cell
restored from the cache then diverges from the one that booted there,
far from the cause.
Here each field is perturbed in turn: the snapshot must change, and
restoring the pre-perturbation state must bring the field back.  A new
field added without a decision fails this test.
"""

import dataclasses
import enum
from collections import Counter, defaultdict, deque

import pytest

from repro.core import vcpu
from repro.faults.chaos import MAX_DISPATCHES, _build_sbi_system
from repro.hart.stats import TrapEvent
from repro.policy.ace import AcePolicy
from repro.policy.default import DefaultPolicy
from repro.policy.keystone import KeystonePolicy
from repro.policy.sandbox import FirmwareSandboxPolicy
from repro.spec.platform import RVA23_MACHINE, VISIONFIVE2

#: Per component: attributes that are wiring (bound at construction or
#: per run), configuration, or state derived from other fields.
NOT_STATE = {
    "Machine": {
        "config", "cycle_model", "ram", "spec_bus", "blocks", "_regions",
        "_region_bases", "_region_index", "_service_depth",
        "_resume_stacks", "max_dispatches", "hart_start_hook",
        "firmware_panic_hook", "fault_injector", "tracer", "scheduler",
        "coverage", "world_view", "monitor", "wall_deadline",
        "_frequency_hz",
        # Components a checkpoint composes next to the machine's own.
        "stats", "clint", "plic", "uart", "harts",
    },
    "Hart": {"machine", "hartid", "cycle_model", "_cost_table"},
    "MachineState": {"config", "hartid"},
    "CsrFile": {"config", "hartid", "time_source", "table"},
    "Clint": {"base", "size", "num_harts", "time_source", "_set_msip",
              "_set_mtip", "fault_hook",
              # The deadline window, derived from mtimecmp and the levels.
              "_window_lo", "_window_hi", "_window_cmp"},
    "Plic": {"base", "size", "num_harts", "_set_eip", "fault_hook"},
    "Uart": {"base", "size", "fault_hook"},
    "TrapStats": {"keep_events", "machine", "_last", "_last_by_hart", "_seq_by_hart",
                  "_injected_by_hart", "_injected_seq_by_hart"},
    "VirtContext": set(vcpu.WIRING),
    "VirtualClint": {"machine", "clint"},
    "FastPath": {"miralis", "machine", "costs"},
    "FirmwareWatchdog": {"miralis", "machine", "config",
                         "_capture_activation"},
    "Miralis": {"machine", "region", "firmware", "config", "vpmp",
                "switcher"},
    "DefaultPolicy": set(),  # binds no wiring: its init is the no-op
    "FirmwareSandboxPolicy": set(FirmwareSandboxPolicy.WIRING),
    "KeystonePolicy": set(KeystonePolicy.WIRING),
    "AcePolicy": set(AcePolicy.WIRING),
}

#: Per component: attributes holding a component whose own pair the
#: snapshot composes, mapped to the state key it lands under.
COMPOSED = {
    "Hart": {"state": "state"},
    "MachineState": {"csr": "csr"},
    "Miralis": {"vctx": "vctx", "vclint": "vclint", "offload": "offload",
                "policy": "policy", "watchdog": "watchdog"},
}


def _booted_system():
    """The chaos SBI build (sandbox policy, watchdog armed) at kernel
    entry, so logs, counters and shadows hold real values."""
    system, _ = _build_sbi_system(
        dataclasses.replace(VISIONFIVE2, num_harts=2), "opensbi")
    machine = system.machine
    machine.max_dispatches = MAX_DISPATCHES
    assert machine.boot_to(system.kernel.entry_point,
                           entry=system.miralis.region.base)
    return system


def components():
    """One live instance of every stateful component."""
    system = _booted_system()
    machine, miralis = system.machine, system.miralis
    hart = machine.harts[0]
    keystone = KeystonePolicy()
    keystone.init(miralis, machine)
    return [
        machine, hart, hart.state, hart.state.csr, machine.clint,
        machine.plic, machine.uart, machine.stats, miralis.vctx[0],
        miralis.vclint, miralis.offload, miralis.watchdog, miralis,
        miralis.policy, DefaultPolicy(), keystone, AcePolicy(),
    ]


COMPONENT_IDS = [
    "Machine", "Hart", "MachineState", "CsrFile", "Clint", "Plic", "Uart",
    "TrapStats", "VirtContext", "VirtualClint", "FastPath",
    "FirmwareWatchdog", "Miralis", "FirmwareSandboxPolicy",
    "DefaultPolicy", "KeystonePolicy", "AcePolicy",
]


def perturbed(value):
    """A value of the same shape that compares unequal to ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, int):
        return value ^ 0x5A
    if isinstance(value, float):
        return value + 1.5
    if isinstance(value, str):
        return value + "~"
    if value is None:
        return 7
    if isinstance(value, bytearray):
        return value + b"~"
    if isinstance(value, TrapEvent):
        return dataclasses.replace(value, cause=value.cause ^ 1)
    if isinstance(value, Counter):
        return value + Counter({"~probe": 1})
    if isinstance(value, defaultdict):
        copy = defaultdict(value.default_factory, value)
        copy["~probe"] = perturbed(value.default_factory())
        return copy
    if isinstance(value, dict):
        return {**value, "~probe": 7}
    if isinstance(value, list):
        return [perturbed(value[0]), *value[1:]] if value else [7]
    if isinstance(value, deque):
        items = [perturbed(value[0]), *list(value)[1:]] if value else [7]
        return deque(items, maxlen=value.maxlen)
    if isinstance(value, tuple):
        return (*value, 7)
    raise TypeError(f"no perturbation for {type(value).__name__}")


def state_fields(component) -> list[str]:
    name = type(component).__name__
    skipped = NOT_STATE[name] | set(COMPOSED.get(name, ()))
    return [field for field in vars(component) if field not in skipped]


def _instances():
    return dict(zip(COMPONENT_IDS, components()))


@pytest.fixture(scope="module")
def inventory():
    return _instances()


def test_every_stateful_component_is_covered(inventory):
    for name, component in inventory.items():
        assert type(component).__name__ == name
        assert callable(component.snapshot_state)
        assert callable(component.restore_state)


@pytest.mark.parametrize("name", COMPONENT_IDS)
def test_exclusions_name_real_attributes(inventory, name):
    """A stale exclusion would hide the next field of that name."""
    component = inventory[name]
    listed = NOT_STATE[name] | set(COMPOSED.get(name, ()))
    assert listed <= set(vars(component)), listed - set(vars(component))


@pytest.mark.parametrize("name", COMPONENT_IDS)
def test_every_field_is_captured_and_restored(name):
    component = _instances()[name]
    fields = state_fields(component)
    for field in fields:
        original = getattr(component, field)
        before = component.snapshot_state()
        setattr(component, field, perturbed(original))
        assert component.snapshot_state() != before, (
            f"{name}.{field} is neither captured by snapshot_state() nor "
            f"listed as wiring/derived in NOT_STATE")
        component.restore_state(before)
        assert getattr(component, field) == original, (
            f"{name}.restore_state does not restore {field}")
        assert component.snapshot_state() == before


@pytest.mark.parametrize("name", sorted(COMPOSED))
def test_composed_components_land_under_their_key(inventory, name):
    component = inventory[name]
    state = component.snapshot_state()
    for field, key in COMPOSED[name].items():
        part = getattr(component, field)
        if part is None:
            expected = None
        elif isinstance(part, list):
            expected = [item.snapshot_state() for item in part]
        else:
            expected = part.snapshot_state()
        assert state[key] == expected, f"{name}.{field}"


def _mutable_ids(value, found: set) -> set:
    if isinstance(value, (list, dict, set, bytearray, TrapEvent)):
        found.add(id(value))
    if isinstance(value, dict):
        for item in value.values():
            _mutable_ids(item, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _mutable_ids(item, found)
    return found


@pytest.mark.parametrize("name", COMPONENT_IDS)
def test_snapshot_shares_nothing_mutable_with_the_live_object(inventory,
                                                              name):
    component = inventory[name]
    live: set = set()
    for field in state_fields(component):
        _mutable_ids(getattr(component, field), live)
    assert not _mutable_ids(component.snapshot_state(), set()) & live


def test_virt_context_containers_are_the_only_mutable_fields(inventory):
    """``VirtContext`` copies only ``CONTAINERS``, one level deep: every
    other field must be immutable, and the containers must hold ints."""
    vctx = inventory["VirtContext"]
    for field in state_fields(vctx):
        value = getattr(vctx, field)
        if field in vcpu.CONTAINERS:
            items = value.values() if isinstance(value, dict) else value
            assert all(type(item) is int for item in items), field
        else:
            assert isinstance(value, (int, enum.Enum)), field


@pytest.mark.parametrize("policy", [
    DefaultPolicy(), FirmwareSandboxPolicy([(0x1000, 0x100)]),
    KeystonePolicy(), AcePolicy(),
], ids=lambda policy: type(policy).__name__)
def test_policy_init_binds_wiring_only(policy):
    """The checkpoint rejects a policy whose saved fields differ from the
    target's; it compares before ``init``, which is exact only while
    ``init`` adds no field."""
    system = _booted_system()
    machine = system.machine
    if isinstance(policy, AcePolicy):
        machine = type(machine)(RVA23_MACHINE)
    before = set(policy.snapshot_state())
    policy.init(system.miralis, machine)
    assert set(policy.snapshot_state()) == before
