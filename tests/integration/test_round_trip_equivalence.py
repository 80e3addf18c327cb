"""The trap round trip's cheaper forms against copies of the code they replace.

The trap path builds its per-trap records as tuples, reads an interned
instruction's encoding from the instruction itself, and installs the
multiplexed PMP with list operations.  Each reference below is the form
that was replaced, kept verbatim in behaviour; the new form must agree
with it on every input.  (``Clint.tick``'s deadline window is checked
against its per-hart reference in ``tests/hart/test_clint_edges.py``.)
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vpmp as vpmp_module
from repro.core.vcpu import VirtContext, World
from repro.core.vpmp import PmpVirtualizer
from repro.hart.machine import Machine
from repro.hart.program import Region
from repro.isa import constants as c
from repro.isa.decoder import decode
from repro.isa.encoding import (
    OPCODE_AUIPC, OPCODE_BRANCH, OPCODE_JAL, OPCODE_JALR, OPCODE_LOAD,
    OPCODE_LUI, OPCODE_MISC_MEM, OPCODE_OP, OPCODE_OP_32, OPCODE_OP_IMM,
    OPCODE_OP_IMM_32, OPCODE_STORE, OPCODE_SYSTEM, encode,
)
from repro.isa.instructions import IllegalInstructionError, make_instruction
from repro.spec.platform import VISIONFIVE2
from repro.spec.step import MemoryAccess, Outcome
from repro.spec.traps import Trap

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


# -- Instruction.word ------------------------------------------------------

OPCODES = (
    OPCODE_AUIPC, OPCODE_BRANCH, OPCODE_JAL, OPCODE_JALR, OPCODE_LOAD,
    OPCODE_LUI, OPCODE_MISC_MEM, OPCODE_OP, OPCODE_OP_32, OPCODE_OP_IMM,
    OPCODE_OP_IMM_32, OPCODE_STORE, OPCODE_SYSTEM,
)


class TestInstructionWord:
    @settings(max_examples=500)
    @given(upper=st.integers(0, (1 << 25) - 1), opcode=st.sampled_from(OPCODES))
    def test_word_is_the_encoding(self, upper, opcode):
        try:
            instr = decode((upper << 7) | opcode)
        except IllegalInstructionError:
            return
        assert instr.word == encode(instr)
        assert instr.word == instr.word  # cached: stable on re-read
        assert decode(instr.word) == instr

    def test_interned_instruction_carries_its_word(self):
        instr = make_instruction("csrrs", rd=29, rs1=0, csr=c.CSR_MSTATUS)
        assert instr is make_instruction("csrrs", rd=29, rs1=0,
                                         csr=c.CSR_MSTATUS)
        assert instr.word == encode(instr)
        assert "word" in vars(instr)


# -- tuple trap records ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ReferenceTrap:
    """The frozen dataclass ``Trap`` replaced."""

    cause: int
    is_interrupt: bool = False
    tval: int = 0

    @property
    def mcause_value(self) -> int:
        return (c.INTERRUPT_BIT | self.cause) if self.is_interrupt else self.cause

    def __str__(self) -> str:
        kind, names = (
            ("interrupt", c.InterruptCause) if self.is_interrupt
            else ("exception", c.TrapCause)
        )
        try:
            return f"{kind} {names(self.cause).name}"
        except ValueError:
            return f"{kind} code {self.cause}"


@dataclasses.dataclass(frozen=True)
class ReferenceOutcome:
    """The frozen dataclass ``Outcome`` replaced."""

    trap: Optional[ReferenceTrap] = None
    memory_access: Optional[object] = None
    is_wfi: bool = False
    is_fence: bool = False

    @property
    def trapped(self) -> bool:
        return self.trap is not None


causes = st.one_of(st.sampled_from(list(c.TrapCause)),
                   st.integers(min_value=0, max_value=63))
traps = st.tuples(causes, st.booleans(), u64)


def _pair(fields):
    cause, is_interrupt, tval = fields
    return (Trap(cause, is_interrupt, tval),
            ReferenceTrap(cause, is_interrupt, tval))


class TestTupleRecords:
    @settings(max_examples=300)
    @given(first=traps, second=traps)
    def test_trap_agrees_with_the_dataclass(self, first, second):
        trap, reference = _pair(first)
        other, other_reference = _pair(second)
        assert str(trap) == str(reference)
        assert "Reference" + repr(trap) == repr(reference)
        assert trap.mcause_value == reference.mcause_value
        assert (trap == other) == (reference == other_reference)
        assert (trap != other) == (reference != other_reference)
        if trap == other:
            assert hash(trap) == hash(other)
        assert Trap(first[0]) == Trap(first[0], False, 0)
        assert Trap(first[0], tval=5) == Trap(first[0], is_interrupt=False,
                                              tval=5)

    @given(fields=traps, is_wfi=st.booleans(), is_fence=st.booleans(),
           access=st.booleans())
    def test_outcome_agrees_with_the_dataclass(self, fields, is_wfi,
                                               is_fence, access):
        trap, reference = _pair(fields)
        memory = (MemoryAccess(c.AccessType.READ, 0x8000_0000, 8)
                  if access else None)
        outcome = Outcome(trap, memory, is_wfi, is_fence)
        expected = ReferenceOutcome(reference, memory, is_wfi, is_fence)
        assert outcome.trapped == expected.trapped
        assert outcome.trap.mcause_value == expected.trap.mcause_value
        assert (outcome.is_wfi, outcome.is_fence) == (is_wfi, is_fence)
        assert outcome.memory_access == memory
        assert outcome == Outcome(trap=Trap(*fields), memory_access=memory,
                                  is_wfi=is_wfi, is_fence=is_fence)
        assert Outcome() == Outcome(None, None, False, False)
        assert not Outcome().trapped

    @pytest.mark.parametrize("record,field", [
        (Trap(c.TrapCause.BREAKPOINT), "tval"),
        (Outcome(), "trap"),
        (MemoryAccess(c.AccessType.WRITE, 0x10, 4), "address"),
    ])
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            record.extra = 1


# -- PmpVirtualizer.install ------------------------------------------------


def reference_compute(vpmp, vctx, world, policy, hartid):
    """``PmpVirtualizer.compute`` before the virtual entries went list-wise."""
    count = vpmp.machine.config.pmp_count
    cfg = [0] * count
    addr = [0] * count
    if count == 0:
        return cfg, addr
    no_permission = int(c.PmpAddressMode.NAPOT) << c.PMP_A_SHIFT
    all_addresses = (1 << 54) - 1
    cfg[0], addr[0] = no_permission, vpmp._miralis_guard_addr
    cfg[1], addr[1] = no_permission, vpmp._clint_guard_addr
    entries = policy.pmp_entries(world, hartid)[: vpmp.policy_entry_count]
    for i, (entry_addr, entry_cfg) in enumerate(entries):
        cfg[2 + i] = entry_cfg & c.PMP_CFG_VALID_MASK & ~c.PMP_L
        addr[2 + i] = entry_addr & all_addresses
    cfg[vpmp.zero_entry_index] = 0
    addr[vpmp.zero_entry_index] = 0
    for i in range(vpmp.virtual_count):
        physical = vpmp.virtual_base_index + i
        if physical >= count - 1:
            break
        vcfg = vctx.pmpcfg[i]
        vaddr = vctx.pmpaddr[i]
        if world == World.FIRMWARE and not vcfg & c.PMP_L:
            mode_bits = vcfg & c.PMP_A_MASK
            vcfg = mode_bits | c.PMP_R | c.PMP_W | c.PMP_X
        cfg[physical] = vcfg & ~c.PMP_L
        addr[physical] = vaddr
    if world == World.FIRMWARE:
        if policy.allow_firmware_default_access():
            cfg[vpmp.all_memory_index] = (
                no_permission | c.PMP_R | c.PMP_W | c.PMP_X)
        else:
            cfg[vpmp.all_memory_index] = no_permission
        addr[vpmp.all_memory_index] = all_addresses
    else:
        cfg[vpmp.all_memory_index] = 0
        addr[vpmp.all_memory_index] = 0
    return cfg, addr


def reference_install(vpmp, csr_file, vctx, world, policy, hartid) -> int:
    """``PmpVirtualizer.install`` before it compared list-wise."""
    cfg, addr = reference_compute(vpmp, vctx, world, policy, hartid)
    writes = 0
    for index, value in enumerate(addr):
        if csr_file.pmpaddr[index] != value:
            csr_file.pmpaddr[index] = value
            writes += 1
    for index, value in enumerate(cfg):
        if csr_file.pmpcfg[index] != value:
            csr_file.pmpcfg[index] = value
            writes += 1
    return writes


class StubPolicy:
    def __init__(self, entries, default_access):
        self.entries = entries
        self.default_access = default_access

    def pmp_entries(self, world, hartid):
        return self.entries

    def allow_firmware_default_access(self):
        return self.default_access


_MACHINES: dict[int, Machine] = {}


def _machine(pmp_count: int) -> Machine:
    if pmp_count not in _MACHINES:
        _MACHINES[pmp_count] = Machine(
            dataclasses.replace(VISIONFIVE2, pmp_count=pmp_count))
    return _MACHINES[pmp_count]


bytes_ = st.integers(min_value=0, max_value=0xFF)
addrs = st.integers(min_value=0, max_value=(1 << 54) - 1)


@st.composite
def install_cases(draw):
    pmp_count = draw(st.sampled_from([0, 8, 16, 64]))
    policy_entries = draw(st.integers(0, 3)) if pmp_count else 0
    max_virtual = draw(st.sampled_from([1, 4, 16, 64]))
    entries = draw(st.lists(st.tuples(u64, bytes_), max_size=policy_entries))
    # Small value pools, so registers often already hold the new value.
    cfg_pool = draw(st.lists(bytes_, min_size=1, max_size=4))
    addr_pool = draw(st.lists(addrs, min_size=1, max_size=4))
    return {
        "pmp_count": pmp_count,
        "policy_entries": policy_entries,
        "max_virtual": max_virtual,
        "policy": StubPolicy(entries, draw(st.booleans())),
        "world": draw(st.sampled_from([World.FIRMWARE, World.OS])),
        "vcfg": draw(st.lists(st.sampled_from(cfg_pool), min_size=64,
                              max_size=64)),
        "vaddr": draw(st.lists(st.sampled_from(addr_pool), min_size=64,
                               max_size=64)),
        "physical_cfg": draw(st.lists(st.sampled_from(cfg_pool + [0]),
                                      min_size=64, max_size=64)),
        "physical_addr": draw(st.lists(st.sampled_from(addr_pool + [0]),
                                       min_size=64, max_size=64)),
        "repeat": draw(st.booleans()),
    }


class TestPmpInstall:
    @settings(max_examples=300, deadline=None)
    @given(case=install_cases())
    def test_install_matches_the_element_wise_reference(self, case):
        machine = _machine(case["pmp_count"])
        hart = machine.harts[0]
        region = Region("miralis", 0x8000_0000, 0x20_0000)
        try:
            with mock.patch.object(vpmp_module, "MAX_VIRTUAL_PMP",
                                   case["max_virtual"]):
                vpmp = PmpVirtualizer(machine, region, case["policy_entries"])
        except ValueError:
            return  # no room for virtual PMPs: rejected either way
        vctx = VirtContext(machine.config, hartid=0)
        vctx.pmpcfg[:] = case["vcfg"]
        vctx.pmpaddr[:] = case["vaddr"]
        csr_file = hart.state.csr
        csr_file.pmpcfg[:] = case["physical_cfg"]
        csr_file.pmpaddr[:] = case["physical_addr"]
        reference_file = SimpleNamespace(pmpcfg=list(case["physical_cfg"]),
                                         pmpaddr=list(case["physical_addr"]))
        world, policy = case["world"], case["policy"]

        assert (vpmp.compute(vctx, world, policy, 0)
                == reference_compute(vpmp, vctx, world, policy, 0))
        rounds = 2 if case["repeat"] else 1
        for _ in range(rounds):  # the second round rewrites nothing
            writes = vpmp.install(hart, vctx, world, policy)
            expected = reference_install(vpmp, reference_file, vctx, world,
                                         policy, 0)
            assert writes == expected
            assert csr_file.pmpcfg == reference_file.pmpcfg
            assert csr_file.pmpaddr == reference_file.pmpaddr
            assert len(csr_file.pmpcfg) == len(csr_file.pmpaddr) == 64
