"""The chaos layers' per-trap helpers against the forms they replaced.

``FaultInjector._decide`` walks a per-site spec index and formats a
decision's detail only when it fires, ``CoverageMap.record`` memoises each
path's bitmap slot, ``_copy`` returns scalars and scalar lists at once,
``csr_access_allowed`` reads its static rule from the per-config CSR
table, and the sandbox policy scrubs and restores whole register files
and hashes the OS image from one bulk ``Ram.read_bytes``.  The references
below are the replaced code, kept verbatim in logic; the rewritten
helpers must agree with them on every input.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter, defaultdict
from types import SimpleNamespace
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vcpu import VirtContext, World
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
from repro.hart.memory import Ram
from repro.hart.stats import TrapEvent
from repro.isa import constants as c
from repro.isa.decoder import decode
from repro.isa.encoding import encode
from repro.isa.instructions import IllegalInstructionError, Instruction
from repro.policy.interface import PolicyAction
from repro.policy.sandbox import FirmwareSandboxPolicy
from repro.sbi.spec_registry import (
    all_signatures,
    allowed_read_registers,
    allowed_write_registers,
)
from repro.sbi.types import SbiCall
from repro.statecopy import copy_state as _copy
from repro.spec.platform import PREMIER_P550, RVA23_MACHINE, VISIONFIVE2
from repro.spec.state import MachineState
from repro.spec.step import csr_access_allowed

CSRS = (c.CSR_MTVEC, c.CSR_MSTATUS, c.CSR_MIE, c.CSR_MEPC)
HARTS = st.integers(min_value=0, max_value=2)


# -- FaultInjector._decide -------------------------------------------------


class ReferenceInjector(FaultInjector):
    """The injector with the enumerate-every-spec decision loop, which
    formats every decision's detail up front."""

    def __init__(self, plan: FaultPlan, seed: int = 0):
        super().__init__(plan, seed)
        self._ref_hits: Counter[int] = Counter()

    def _ref_decide(self, site: str, detail: str,
                    **attrs) -> Optional[FaultSpec]:
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

    def corrupt_vcsr_write(self, hartid: int, csr: int, value: int) -> int:
        spec = self._ref_decide(
            "vcsr-write", f"csr={csr:#x}", hart=hartid, csr=csr
        )
        if spec is None:
            return value
        if spec.xor_mask is not None:
            corrupted = (value ^ spec.xor_mask) & U64
        else:
            corrupted = (value ^ (1 << self._rng.getrandbits(6))) & U64
        last = self.injections[-1]
        self.injections[-1] = last._replace(
            detail=f"csr={csr:#x} {value:#x}->{corrupted:#x}"
        )
        return corrupted

    def mmio_error(self, device: str, kind: str, offset: int,
                   hartid: Optional[int] = None) -> bool:
        return self._ref_decide(
            "mmio", f"{device}:{kind}@{offset:#x}",
            device=device, kind=kind, hart=hartid,
        ) is not None

    def flip_instruction(self, hartid: int, mnemonic: str) -> bool:
        return self._ref_decide("decode", f"flip:{mnemonic}",
                                hart=hartid) is not None

    def stall_firmware(self, hartid: int) -> bool:
        return self._ref_decide("stall", f"hart{hartid}",
                                hart=hartid) is not None


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
    # Twice: a check must not change what a later one answers.
    for _ in range(2):
        for mode in (c.U_MODE, c.S_MODE, c.M_MODE):
            state.mode = mode
            for csr in range(4096):
                for is_write in (False, True):
                    assert (csr_access_allowed(state, csr, is_write)
                            == reference_csr_access_allowed(state, csr,
                                                            is_write)), (
                        hex(csr), mode, is_write)


# -- FirmwareSandboxPolicy world-switch hooks --------------------------------


class ReferenceSandbox(FirmwareSandboxPolicy):
    """The sandbox with per-register scrub and restore, its own S-CSR
    table, and an OS-image hash of 512 eight-byte reads."""

    _SCRUBBED_S_CSRS = (
        ("stvec", c.CSR_STVEC),
        ("sscratch", c.CSR_SSCRATCH),
        ("sepc", c.CSR_SEPC),
        ("scause", c.CSR_SCAUSE),
        ("stval", c.CSR_STVAL),
        ("satp", c.CSR_SATP),
        ("scounteren", c.CSR_SCOUNTEREN),
        ("senvcfg", c.CSR_SENVCFG),
    )

    def _hash_os_image(self) -> str:
        kernel_region = self.machine.region_named("kernel")
        digest = hashlib.sha256()
        for offset in range(0, 0x1000, 8):
            word = self.machine.ram.read(kernel_region.base + offset, 8)
            digest.update(word.to_bytes(8, "little"))
        return digest.hexdigest()

    def on_switch_from_os(self, hart, vctx):
        state = hart.state
        cause = state.csr.mcause & ~c.INTERRUPT_BIT
        is_interrupt = bool(state.csr.mcause & c.INTERRUPT_BIT)
        frame = {"regs": state.xregs, "writable": frozenset({10, 11})}
        readable: frozenset[int] = frozenset()
        if not is_interrupt and cause == c.TrapCause.ECALL_FROM_S:
            call = SbiCall.from_regs(frame["regs"])
            readable = allowed_read_registers(call.eid, call.fid)
            frame["writable"] = allowed_write_registers(call.eid, call.fid)
        elif not is_interrupt and cause == c.TrapCause.ILLEGAL_INSTRUCTION:
            try:
                instr = decode(state.csr.read(c.CSR_MTVAL))
                frame["writable"] = frozenset({instr.rd}) - {0}
            except IllegalInstructionError:
                frame["writable"] = frozenset()
        else:
            frame["writable"] = frozenset()
        for index in range(1, 32):
            if index not in readable:
                state.set_xreg(index, 0)
        self._scrub_s_csrs(hart, frame)
        self._saved_frames[hart.hartid] = frame
        self.scrubbed_switches += 1
        return PolicyAction.CONTINUE

    def _scrub_s_csrs(self, hart, frame: dict) -> None:
        csr_file = hart.state.csr
        saved = {"mstatus_s": csr_file.mstatus & c.SSTATUS_MASK,
                 "sie": csr_file.mie & c.SIP_MASK}
        for attr, csr in self._SCRUBBED_S_CSRS:
            saved[attr] = csr_file.read(csr)
            csr_file.write(csr, 0)
        csr_file.mstatus &= ~c.SSTATUS_MASK | c.MSTATUS_UXL  # keep UXL
        frame["s_csrs"] = saved

    def _restore_s_csrs(self, hart, vctx) -> None:
        frame = self._saved_frames.get(hart.hartid)
        if not frame or "s_csrs" not in frame:
            return
        saved = frame["s_csrs"]
        for attr, _csr in self._SCRUBBED_S_CSRS:
            setattr(vctx, attr, saved[attr])
        vctx.mstatus = (vctx.mstatus & ~c.SSTATUS_MASK) | saved["mstatus_s"]
        vctx.mie = (vctx.mie & ~c.SIP_MASK) | saved["sie"]

    def _restore_registers(self, hart) -> None:
        frame = self._saved_frames.get(hart.hartid)
        if frame is None:
            return
        for index in range(1, 32):
            if index not in frame["writable"]:
                hart.state.set_xreg(index, frame["regs"][index])
        self._saved_frames[hart.hartid] = None


S_CSRS = tuple(csr for _attr, csr in ReferenceSandbox._SCRUBBED_S_CSRS)
SBI_CALLS = [(sig.eid, sig.fid) for sig in all_signatures()]
XLEN_VALUES = st.integers(0, U64)


def _typed(value):
    """``value`` with the type of every container and leaf spelled out, so
    two frames compare equal only if their shapes and types match too."""
    if isinstance(value, dict):
        return ("dict", [(key, _typed(item)) for key, item in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(item) for item in value])
    if isinstance(value, frozenset):
        return ("frozenset", sorted(value),
                sorted({type(item).__name__ for item in value}))
    return (type(value).__name__, value)


@st.composite
def trap_causes(draw) -> tuple[int, int, list[int]]:
    """``(mcause, mtval, register file)`` of a trap the OS hands over."""
    regs = [0] + draw(st.lists(XLEN_VALUES, min_size=31, max_size=31))
    kind = draw(st.sampled_from(
        ("sbi", "unknown-sbi", "interrupt", "illegal", "other")))
    mtval = draw(st.integers(0, (1 << 32) - 1))
    if kind in ("sbi", "unknown-sbi"):
        if kind == "sbi":
            eid, fid = draw(st.sampled_from(SBI_CALLS))
        else:
            eid, fid = draw(XLEN_VALUES), draw(XLEN_VALUES)
        regs[17], regs[16] = eid, fid
        return int(c.TrapCause.ECALL_FROM_S), mtval, regs
    if kind == "interrupt":
        return (c.INTERRUPT_BIT | draw(st.sampled_from((1, 3, 5, 7, 9, 11))),
                mtval, regs)
    if kind == "illegal":
        # A CSR instruction (rd = 0 included) or an arbitrary word.
        if draw(st.booleans()):
            mtval = encode(Instruction(
                draw(st.sampled_from(("csrrw", "csrrs", "csrrc"))),
                rd=draw(st.one_of(st.just(0), st.integers(1, 31))),
                rs1=draw(st.integers(0, 31)),
                csr=draw(st.sampled_from(S_CSRS))))
        return int(c.TrapCause.ILLEGAL_INSTRUCTION), mtval, regs
    return draw(st.sampled_from((0, 1, 3, 5, 7, 8, 12))), mtval, regs


def _sandbox_hart(policy_type, mcause, mtval, regs, s_csrs, mstatus, mie):
    policy = policy_type()
    policy._saved_frames = {0: None}
    hart = SimpleNamespace(hartid=0, state=MachineState(VISIONFIVE2))
    state = hart.state
    state.load_xregs(regs)
    csr_file = state.csr
    for csr, value in zip(S_CSRS, s_csrs):
        csr_file.write(csr, value)
    csr_file.write(c.CSR_MSTATUS, mstatus)
    csr_file.write(c.CSR_MIE, mie)
    csr_file.mcause = mcause
    csr_file.write(c.CSR_MTVAL, mtval)
    return policy, hart


def _physical(hart) -> list[int]:
    csr_file = hart.state.csr
    return [*hart.state.xregs, *(csr_file.read(csr) for csr in S_CSRS),
            csr_file.mstatus, csr_file.mie]


@settings(max_examples=300, deadline=None)
@given(trap=trap_causes(),
       s_csrs=st.lists(XLEN_VALUES, min_size=8, max_size=8),
       mstatus=XLEN_VALUES, mie=XLEN_VALUES,
       firmware_regs=st.lists(XLEN_VALUES, min_size=32, max_size=32),
       vctx_mstatus=XLEN_VALUES, vctx_mie=XLEN_VALUES)
def test_sandbox_switch_hooks_match_reference(trap, s_csrs, mstatus, mie,
                                              firmware_regs, vctx_mstatus,
                                              vctx_mie):
    mcause, mtval, regs = trap
    new, new_hart = _sandbox_hart(FirmwareSandboxPolicy, mcause, mtval, regs,
                                  s_csrs, mstatus, mie)
    ref, ref_hart = _sandbox_hart(ReferenceSandbox, mcause, mtval, regs,
                                  s_csrs, mstatus, mie)
    new.on_switch_from_os(new_hart, None)
    ref.on_switch_from_os(ref_hart, None)
    assert _physical(new_hart) == _physical(ref_hart)
    assert _typed(new._saved_frames) == _typed(ref._saved_frames)
    assert new.scrubbed_switches == ref.scrubbed_switches == 1

    # The firmware runs, then the switch back restores the OS's state.
    vctxs = []
    for policy, hart in ((new, new_hart), (ref, ref_hart)):
        hart.state.load_xregs(firmware_regs)
        vctx = VirtContext(VISIONFIVE2)
        vctx.mstatus, vctx.mie = vctx_mstatus, vctx_mie
        policy._restore_s_csrs(hart, vctx)
        policy._restore_registers(hart)
        vctxs.append(vctx.snapshot_state())
    assert new_hart.state.xregs == ref_hart.state.xregs
    assert vctxs[0] == vctxs[1]
    assert new._saved_frames == ref._saved_frames == {0: None}


# -- Ram.read_bytes and the OS-image hash --------------------------------------

RAM_BASE = 0x8000_0000
RAM_PAGES = 6
ram_writes = st.lists(
    st.tuples(st.integers(0, RAM_PAGES * 4096 - 8),
              st.sampled_from((1, 2, 4, 8)), XLEN_VALUES),
    max_size=40)


def _ram(writes) -> Ram:
    ram = Ram(RAM_BASE, RAM_PAGES * 4096)
    for offset, size, value in writes:
        ram.write(RAM_BASE + offset, size, value & ((1 << (8 * size)) - 1))
    return ram


@settings(max_examples=200, deadline=None)
@given(writes=ram_writes,
       reads=st.lists(st.tuples(st.integers(0, RAM_PAGES * 4096 - 1),
                                st.integers(0, 9000)), max_size=8))
def test_read_bytes_matches_byte_reads(writes, reads):
    bulk, single = _ram(writes), _ram(writes)
    for offset, length in reads:
        length = min(length, RAM_PAGES * 4096 - offset)
        address = RAM_BASE + offset
        data = bulk.read_bytes(address, length)
        assert type(data) is bytes
        assert data == bytes(single.read(address + i, 1)
                             for i in range(length))
        # Both touched (allocated) the same pages, never-touched ones too.
        assert bulk._pages.keys() == single._pages.keys()


@settings(max_examples=100, deadline=None)
@given(writes=ram_writes,
       kernel_offset=st.integers(0, (RAM_PAGES - 1) * 4096))
def test_os_image_hash_matches_reference(writes, kernel_offset):
    hashes = []
    for policy_type in (FirmwareSandboxPolicy, ReferenceSandbox):
        ram = _ram(writes)
        kernel = SimpleNamespace(base=RAM_BASE + kernel_offset)
        policy = policy_type()
        policy.machine = SimpleNamespace(
            ram=ram, region_named={"kernel": kernel}.__getitem__)
        hashes.append((policy._hash_os_image(), set(ram._pages)))
    assert hashes[0] == hashes[1]
