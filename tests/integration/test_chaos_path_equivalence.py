"""The chaos layers' per-trap helpers against the forms they replaced.

``FaultInjector._decide`` walks a per-site spec index, ``CoverageMap.record``
memoises each path's bitmap slot, ``_copy`` returns scalars and scalar
lists at once, and ``csr_access_allowed`` reads a per-CSR rule memo.  The
references below are the replaced code, kept verbatim in logic; the
rewritten helpers must agree with them on every input.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vcpu import World
from repro.coverage.map import (
    BLOCK_BITS,
    U64,
    WORLD_KEYS,
    CoverageMap,
    _slot,
    cause_key,
)
from repro.faults.injector import (
    MMIO_DEVICES,
    PHYSICAL_DEVICES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectionEvent,
)
from repro.hart.stats import TrapEvent
from repro.isa import constants as c
from repro.statecopy import copy_state as _copy
from repro.spec.platform import PREMIER_P550, RVA23_MACHINE, VISIONFIVE2
from repro.spec.state import MachineState
from repro.spec.step import csr_access_allowed

CSRS = (c.CSR_MTVEC, c.CSR_MSTATUS, c.CSR_MIE, c.CSR_MEPC)
HARTS = st.integers(min_value=0, max_value=2)


# -- FaultInjector._decide -------------------------------------------------


class ReferenceInjector(FaultInjector):
    """The injector with the enumerate-every-spec decision loop."""

    def __init__(self, plan: FaultPlan, seed: int = 0):
        super().__init__(plan, seed)
        self._ref_hits: Counter[int] = Counter()

    def _decide(self, site: str, detail: str, **attrs) -> Optional[FaultSpec]:
        if site not in self.plan.sites:
            return None
        index = self._site_counts[site]
        self._site_counts[site] += 1
        for spec_index, spec in enumerate(self.plan.specs):
            if spec.site != site or not spec.matches(**attrs):
                continue
            if index < spec.after:
                continue
            if (spec.limit is not None
                    and self._ref_hits[spec_index] >= spec.limit):
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            self._ref_hits[spec_index] += 1
            self.injections.append(InjectionEvent(site, index, detail))
            return spec
        return None

    def stall_firmware(self, hartid: int) -> bool:
        return self._decide("stall", f"hart{hartid}", hart=hartid) is not None


def _optional(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def fault_specs(draw) -> FaultSpec:
    site = draw(st.sampled_from(("vcsr-write", "mmio", "decode", "stall")))
    fields = {
        "probability": draw(st.sampled_from((0.0, 0.25, 0.5, 1.0))),
        "after": draw(st.integers(min_value=0, max_value=6)),
        "limit": draw(_optional(st.integers(min_value=0, max_value=4))),
    }
    if site == "vcsr-write":
        fields["csr"] = draw(_optional(st.sampled_from(CSRS)))
        fields["xor_mask"] = draw(_optional(st.integers(0, (1 << 64) - 1)))
    if site == "mmio":
        fields["device"] = draw(_optional(st.sampled_from(MMIO_DEVICES)))
        fields["kind"] = draw(_optional(st.sampled_from(("read", "write"))))
    if site != "mmio" or fields["device"] not in PHYSICAL_DEVICES:
        fields["hart"] = draw(_optional(HARTS))
    return FaultSpec(site, **fields)


decision_calls = st.one_of(
    st.tuples(st.just("vcsr-write"), HARTS, st.sampled_from(CSRS),
              st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("mmio"), st.sampled_from(MMIO_DEVICES),
              st.sampled_from(("read", "write")),
              st.integers(0, 0xFFFF), _optional(HARTS)),
    st.tuples(st.just("decode"), HARTS, st.sampled_from(("csrrw", "mret"))),
    st.tuples(st.just("stall"), HARTS),
)


def _call(injector: FaultInjector, call: tuple):
    site, *args = call
    if site == "vcsr-write":
        return injector.corrupt_vcsr_write(*args)
    if site == "mmio":
        device, kind, offset, hartid = args
        return injector.mmio_error(device, kind, offset, hartid=hartid)
    if site == "decode":
        return injector.flip_instruction(*args)
    return injector.stall_firmware(*args)


@settings(max_examples=200, deadline=None)
@given(specs=st.lists(fault_specs(), max_size=5),
       calls=st.lists(decision_calls, max_size=60),
       seed=st.integers(0, 1 << 16))
def test_decide_matches_reference(specs, calls, seed):
    plan = FaultPlan("p", tuple(specs))
    new, ref = FaultInjector(plan, seed), ReferenceInjector(plan, seed)
    for call in calls:
        assert _call(new, call) == _call(ref, call)
    assert new.injections == ref.injections
    assert new._site_counts == ref._site_counts
    assert new._rng.getstate() == ref._rng.getstate()


# -- _copy -------------------------------------------------------------------


def reference_copy(value):
    if isinstance(value, TrapEvent):
        return dataclasses.replace(value)
    if isinstance(value, Counter):
        return Counter(value)
    if isinstance(value, defaultdict):
        return defaultdict(value.default_factory,
                           {k: reference_copy(v) for k, v in value.items()})
    if isinstance(value, dict):
        return {k: reference_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [reference_copy(v) for v in value]
    if isinstance(value, tuple):
        return tuple(reference_copy(v) for v in value)
    if isinstance(value, (bytes, bytearray)):
        return bytearray(value)
    if isinstance(value, set):
        return set(value)
    if hasattr(value, "clone"):
        return value.clone()
    return value


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=False), st.sampled_from(list(c.PrivilegeLevel)),
    st.sampled_from(list(World)),
)
trap_events = st.builds(
    TrapEvent, hart=HARTS, cause=st.integers(0, 15),
    is_interrupt=st.booleans(), from_mode=st.none(),
    mtime=st.integers(0, 1 << 32),
)
leaves = st.one_of(
    scalars, trap_events, st.binary(max_size=8).map(bytearray),
    st.sets(st.integers(0, 99), max_size=4),
    st.dictionaries(st.integers(0, 9), st.integers(0, 9), max_size=3).map(
        Counter),
)
state_values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.integers(0, 63), children, max_size=4),
        st.dictionaries(st.integers(0, 63), children, max_size=3).map(
            lambda d: defaultdict(int, d)),
    ),
    max_leaves=20,
)

_MUTABLE = (list, dict, set, bytearray, TrapEvent)


def _mutable_ids(value, found: set) -> set:
    if isinstance(value, _MUTABLE):
        found.add(id(value))
    if isinstance(value, dict):
        for item in value.values():
            _mutable_ids(item, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _mutable_ids(item, found)
    return found


def _same_shape(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _same_shape(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        for x, y in zip(a, b):
            _same_shape(x, y)


@settings(max_examples=300, deadline=None)
@given(value=state_values)
def test_copy_matches_reference_and_shares_nothing(value):
    copied = _copy(value)
    expected = reference_copy(value)
    assert copied == expected
    _same_shape(copied, expected)
    assert not _mutable_ids(copied, set()) & _mutable_ids(value, set())


def test_copy_of_register_file_is_fresh():
    pmpaddr = [0, 1 << 63, 7]
    copied = _copy(pmpaddr)
    assert copied == pmpaddr and copied is not pmpaddr


# -- CoverageMap.record --------------------------------------------------------


def reference_record(cov: CoverageMap, hartid: int, cause: int,
                     is_interrupt: bool, pc: int, world) -> None:
    world_name = "NATIVE" if world is None else world.name
    pc_block = (pc & U64) >> BLOCK_BITS
    ckey = cause_key(cause, is_interrupt)
    slot = _slot(pc_block, ckey, WORLD_KEYS[world_name], hartid)
    edge = slot ^ (cov._prev.get(hartid, 0) >> 1)
    cov.bits[edge >> 3] |= 1 << (edge & 7)
    cov._prev[hartid] = slot
    cov.paths.add((world_name, ckey, pc_block, hartid))
    cov._unsourced += 1


traps = st.one_of(
    st.just(None),  # a run boundary
    st.tuples(
        HARTS,
        st.one_of(st.integers(0, 300), st.sampled_from(list(c.TrapCause))),
        st.booleans(),
        # A few handler blocks, so memoised paths repeat.
        st.one_of(st.sampled_from((0x8000_0000, 0x8000_0004, 0x8020_0000)),
                  st.integers(0, (1 << 64) - 1)),
        st.sampled_from([None, World.FIRMWARE, World.OS]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(sequence=st.lists(traps, max_size=80))
def test_record_matches_reference(sequence):
    new, ref = CoverageMap(), CoverageMap()
    for trap in sequence:
        if trap is None:
            new.begin_run()
            ref.begin_run()
            continue
        new.record(*trap)
        reference_record(ref, *trap)
    assert new.bits == ref.bits
    assert new.paths == ref.paths
    assert new._prev == ref._prev
    assert new.records == ref.records
    assert new.canonical_json() == ref.canonical_json()


# -- csr_access_allowed --------------------------------------------------------

_COUNTER_ENABLE_BITS = {c.CSR_CYCLE: 0, c.CSR_TIME: 1, c.CSR_INSTRET: 2}


def reference_csr_access_allowed(state: MachineState, csr: int,
                                 is_write: bool) -> bool:
    if not state.csr.exists(csr):
        return False
    if is_write and c.csr_is_read_only(csr):
        return False
    if state.mode < c.csr_min_privilege(csr):
        return False
    mstatus = state.csr.mstatus
    if csr == c.CSR_SATP and state.mode == c.S_MODE and mstatus & c.MSTATUS_TVM:
        return False
    if (csr in _COUNTER_ENABLE_BITS
            or c.CSR_HPMCOUNTER3 <= csr < c.CSR_HPMCOUNTER3 + 29):
        bit = _COUNTER_ENABLE_BITS.get(csr, csr - c.CSR_CYCLE)
        if (state.mode < c.M_MODE
                and not (state.csr.read(c.CSR_MCOUNTEREN) >> bit) & 1):
            return False
        if (state.mode < c.S_MODE
                and not (state.csr.read(c.CSR_SCOUNTEREN) >> bit) & 1):
            return False
    if csr == c.CSR_STIMECMP and state.mode == c.S_MODE:
        if not state.csr.menvcfg & c.MENVCFG_STCE:
            return False
    return True


counter_enables = st.one_of(
    st.sampled_from((0, 0xFFFF_FFFF, 0b101)), st.integers(0, 0xFFFF_FFFF)
)


@settings(max_examples=8, deadline=None)
@given(platform=st.sampled_from([VISIONFIVE2, PREMIER_P550, RVA23_MACHINE]),
       tvm=st.booleans(), stce=st.booleans(),
       mcounteren=counter_enables, scounteren=counter_enables)
def test_csr_access_allowed_matches_reference(platform, tvm, stce,
                                              mcounteren, scounteren):
    state = MachineState(platform)
    csr_file = state.csr
    if tvm:
        csr_file.mstatus |= c.MSTATUS_TVM
    if stce:
        csr_file.menvcfg |= c.MENVCFG_STCE
    csr_file.write(c.CSR_MCOUNTEREN, mcounteren)
    csr_file.write(c.CSR_SCOUNTEREN, scounteren)
    # Twice: the first pass fills the rule memo, the second reads it.
    for _ in range(2):
        for mode in (c.U_MODE, c.S_MODE, c.M_MODE):
            state.mode = mode
            for csr in range(4096):
                for is_write in (False, True):
                    assert (csr_access_allowed(state, csr, is_write)
                            == reference_csr_access_allowed(state, csr,
                                                            is_write)), (
                        hex(csr), mode, is_write)
