"""The hot-path caches must not change simulation behaviour.

Each hot lookup has one production form, a cache, and keeps the plain
function it memoises as its reference:

* ``decode`` (a decode LRU) against ``_decode_word``;
* ``Instruction.word`` (memoised per instance) against ``encode``;
* ``SystemBus.device_at`` (a per-bus memo) against ``_device_at_uncached``;
* ``Machine.owner_of`` (a bisect over region bases) against a linear
  scan of the registered regions.

The properties below compare each pair directly.  The whole-boot check
compares a boot's fingerprint with a digest pinned from a tree in which
the caches could still be switched off, where the cached and uncached
boots both produced it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.hart.machine import Machine
from repro.hart.program import Region
from repro.isa import encoding
from repro.isa.decoder import _decode_word, decode
from repro.isa.encoding import EncodingError, encode
from repro.isa.instructions import (
    IllegalInstructionError,
    Instruction,
    make_instruction,
)
from repro.policy import FirmwareSandboxPolicy
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized

#: sha256 of ``_fingerprint(_boot())``, recorded with the caches on and
#: with them off; both boots gave this digest.
BOOT_DIGEST = "b24434a05443da079562ac3fac92aff121278bf98f4116dbbb8e947e4021a891"


def _workload(kernel, ctx):
    t0 = kernel.read_time(ctx)
    ctx.compute(5_000)
    kernel.sbi_set_timer(ctx, t0 + 2_000)
    ctx.compute(2_000)
    kernel.sbi_send_ipi(ctx, 0b1, 0)
    ctx.compute(1_000)
    kernel.print(ctx, f"t={kernel.read_time(ctx)}\n")


def _boot():
    system = build_virtualized(
        VISIONFIVE2,
        workload=_workload,
        policy=FirmwareSandboxPolicy(
            extra_allowed_regions=[(VISIONFIVE2.uart_base, 0x100)]
        ),
    )
    halt = system.run()
    hart = system.machine.harts[0]
    return {
        "halt": halt,
        "console": system.console_output,
        "events": list(system.machine.stats.events),
        "trap_counts": dict(system.machine.stats.trap_counts),
        "world_switches": system.machine.stats.world_switches,
        "fastpath_hits": system.machine.stats.fastpath_hits,
        "pc": hart.state.pc,
        "mode": hart.state.mode,
        "xregs": hart.state.xregs,
        "csrs": hart.state.csr.snapshot_state(),
        "cycles": system.machine.cycles,
        "instret": hart.instret,
    }


def _canonical(value):
    """JSON-ready form: enums by name, so the digest is version-stable."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value):
        return {field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _fingerprint(boot: dict) -> str:
    text = json.dumps(_canonical(boot), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(autouse=True)
def _fresh_caches():
    perf.clear_caches()


class TestCacheDifferential:
    def test_cached_and_uncached_boots_are_identical(self):
        # Trap events, every CSR, GPRs, pc, mode, console, counters and
        # cycles all feed the digest.
        assert _fingerprint(_boot()) == BOOT_DIGEST

    def test_boot_is_identical_after_clear_caches(self):
        first = _boot()
        perf.clear_caches()
        assert _boot() == first


_OPCODES = (
    encoding.OPCODE_LOAD, encoding.OPCODE_MISC_MEM, encoding.OPCODE_OP_IMM,
    encoding.OPCODE_AUIPC, encoding.OPCODE_OP_IMM_32, encoding.OPCODE_STORE,
    encoding.OPCODE_OP, encoding.OPCODE_LUI, encoding.OPCODE_OP_32,
    encoding.OPCODE_BRANCH, encoding.OPCODE_JALR, encoding.OPCODE_JAL,
    encoding.OPCODE_SYSTEM,
)
#: Mostly-illegal raw words, words with a known major opcode (mostly
#: legal), and values wider than 32 bits (``decode`` masks them).
words = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    st.builds(lambda high, opcode: (high << 7) | opcode,
              st.integers(0, (1 << 25) - 1), st.sampled_from(_OPCODES)),
    st.integers(0, (1 << 40) - 1),
)

_MNEMONICS = sorted(
    {"lui", "auipc", "jal", "jalr", "fence", "fence.i", "sfence.vma"}
    | set(encoding.LOAD_FUNCT3) | set(encoding.STORE_FUNCT3)
    | set(encoding.BRANCH_FUNCT3) | set(encoding.OP_IMM_FUNCT3)
    | set(encoding.OP_IMM_32_FUNCT3) | set(encoding.OP_FUNCT)
    | set(encoding.OP_32_FUNCT) | set(encoding.CSR_FUNCT3)
    | set(encoding.SYSTEM_IMM)
)
#: Field values reach past each encoder range check, so some draws are
#: unencodable and must fail the same way through ``word``.
instruction_fields = st.tuples(
    st.sampled_from(_MNEMONICS),
    st.integers(0, 33), st.integers(0, 33), st.integers(0, 33),
    st.one_of(st.integers(-2048, 2047), st.integers(-(1 << 21), 1 << 21)),
    st.integers(0, 0x1000),
)


def _encode_or_error(instr: Instruction):
    try:
        return encode(instr)
    except EncodingError as exc:
        return EncodingError, str(exc)


def _word_or_error(instr: Instruction):
    try:
        return instr.word
    except EncodingError as exc:
        return EncodingError, str(exc)


class TestDecodeMatchesReference:
    @settings(max_examples=500)
    @given(words)
    def test_decode_matches_decode_word(self, word):
        try:
            expected = _decode_word(word & 0xFFFFFFFF)
        except IllegalInstructionError as exc:
            with pytest.raises(IllegalInstructionError) as raised:
                decode(word)
            assert (raised.value.word, raised.value.reason) == \
                (exc.word, exc.reason)
            return
        assert decode(word) == expected
        # A second lookup is a cache hit and must still agree.
        assert decode(word) == expected


class TestWordMatchesEncoder:
    @settings(max_examples=500)
    @given(instruction_fields)
    def test_word_matches_encode(self, fields):
        expected = _encode_or_error(Instruction(*fields))
        for instr in (Instruction(*fields), make_instruction(*fields)):
            assert _word_or_error(instr) == expected
            # Memoised (or still failing) on the second read.
            assert _word_or_error(instr) == expected
            if isinstance(expected, int):
                assert instr.__dict__["word"] == expected

    @settings(max_examples=200)
    @given(words)
    def test_decoded_instruction_word_matches_encode(self, word):
        try:
            instr = decode(word)
        except IllegalInstructionError:
            return
        assert instr.word == encode(instr)


@dataclasses.dataclass
class _Device:
    base: int
    size: int

    def read(self, offset: int, size: int) -> int:
        return 0

    def write(self, offset: int, size: int, value: int) -> None:
        pass


def _probes(bases_and_sizes):
    """Addresses around every device edge, plus a few random ones."""
    edges = st.sampled_from([
        point + delta
        for base, size in bases_and_sizes
        for point in (base, base + size)
        for delta in (-1, 0, 1)
    ])
    return st.lists(st.one_of(edges, st.integers(0, 1 << 40)), max_size=40)


_EXTRA = (0x0300_0000, 0x1000)  # unmapped on VISIONFIVE2
_EDGES = [(device.base, device.size)
          for device in Machine(VISIONFIVE2).spec_bus._devices] + [_EXTRA]


class TestDeviceAtMatchesReference:
    @settings(max_examples=200)
    @given(_probes(_EDGES), _probes(_EDGES))
    def test_device_at_matches_uncached_across_attach(self, before, after):
        bus = Machine(VISIONFIVE2).spec_bus
        for address in before:
            assert bus.device_at(address) is bus._device_at_uncached(address)
        bus.attach(_Device(*_EXTRA))
        for address in before + after:
            assert bus.device_at(address) is bus._device_at_uncached(address)


@st.composite
def region_layouts(draw):
    """Non-overlapping regions, registered in a drawn order."""
    regions = []
    cursor = draw(st.integers(0, 0x100))
    for index in range(draw(st.integers(0, 8))):
        base = cursor + draw(st.integers(0, 0x40))
        size = draw(st.integers(1, 0x80))
        regions.append(Region(f"r{index}", base, size))
        cursor = base + size
    return draw(st.permutations(regions))


class TestOwnerOfMatchesLinearScan:
    @settings(max_examples=200)
    @given(region_layouts(), st.lists(st.integers(0, 0x800), max_size=40))
    def test_owner_of_matches_linear_scan(self, regions, addresses):
        machine = Machine(VISIONFIVE2)
        for region in regions:
            machine.register(object(), region)
        edges = [point + delta for region in regions
                 for point in (region.base, region.end) for delta in (-1, 0)]
        for address in addresses + edges:
            expected = next((owner for region, owner in machine._regions
                             if region.contains(address)), None)
            assert machine.owner_of(address) is expected
