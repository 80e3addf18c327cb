"""The coverage map: a deterministic trap-path edge bitmap.

Classic greybox fuzzers key their bitmap on branch edges; here the
interesting control flow is *trap* flow — which world trapped, why, and
where it landed — so the map is keyed on the tuple

    (pc_block, cause_key, world, hart)

where ``pc_block`` is the handler-entry pc with the low bits dropped
(distinguishing the firmware, monitor, and OS vectors), ``cause_key``
folds the interrupt bit into the cause number, and ``world`` names the
execution context (``NATIVE`` on a bare machine, ``FIRMWARE``/``OS``
under the monitor).  Consecutive traps on one hart are chained
AFL-style — the bitmap bit is ``slot ^ (prev_slot >> 1)`` — so the map
distinguishes trap *paths*, not just trap sets.

Slot indices use fixed multiply-xor mixing constants rather than
Python's ``hash()`` (salted per process) or per-trap sha256 (an order of
magnitude slower than the whole record step).  Every derived artifact —
document, canonical JSON, digest — is byte-stable across processes and
union order.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

U64 = (1 << 64) - 1

#: log2 of the bitmap size in bits.  64Ki slots keeps collision odds
#: negligible for the few hundred distinct trap paths a campaign sees,
#: at 8KiB per map.
MAP_BITS = 16
MAP_SIZE = 1 << MAP_BITS

#: Low pc bits dropped when forming the block key: 16-byte blocks, so
#: neighbouring handler-entry slots coalesce but distinct vectors do not.
BLOCK_BITS = 4

COVERAGE_SCHEMA = "repro-cov-v1"

#: World names in key order.  ``NATIVE`` is a bare machine (no monitor
#: installed, ``machine.world_view`` is None); the other two follow
#: :class:`repro.core.vcpu.World`.
WORLD_KEYS = {"NATIVE": 0, "FIRMWARE": 1, "OS": 2}

#: Trap causes that can architecturally occur in this model, used as the
#: denominator of the ``covered/total`` report.  Interrupt causes carry
#: the folded interrupt bit (see :func:`cause_key`).
_EXCEPTION_CAUSES = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15)
_INTERRUPT_CAUSES = (1, 3, 5, 7, 9, 11)

#: Folded into ``cause_key`` for interrupts (above any exception cause).
_INTERRUPT_BIT = 0x100

# Fixed 64-bit mixing constants (splitmix64 family).
_MIX_PC = 0x9E3779B97F4A7C15
_MIX_CAUSE = 0xBF58476D1CE4E5B9
_MIX_WORLD = 0x94D049BB133111EB
_MIX_HART = 0xD6E8FEB86659FD93


def cause_key(cause: int, is_interrupt: bool) -> int:
    """Cause number with the interrupt bit folded in."""
    return (cause & 0xFF) | (_INTERRUPT_BIT if is_interrupt else 0)


def trap_path_space() -> list[tuple[str, int]]:
    """All (world, cause_key) pairs the model can produce — the
    denominator for coverage reports."""
    keys = [cause_key(cause, False) for cause in _EXCEPTION_CAUSES]
    keys += [cause_key(cause, True) for cause in _INTERRUPT_CAUSES]
    return [(world, key) for world in sorted(WORLD_KEYS) for key in sorted(keys)]


def _slot(pc_block: int, ckey: int, world_key: int, hart: int) -> int:
    """Deterministic bitmap slot for one trap-path key."""
    mixed = (pc_block + 1) * _MIX_PC & U64
    mixed ^= (ckey + 1) * _MIX_CAUSE & U64
    mixed ^= (world_key + 1) * _MIX_WORLD & U64
    mixed ^= (hart + 1) * _MIX_HART & U64
    mixed ^= mixed >> 33
    mixed = mixed * _MIX_PC & U64
    mixed ^= mixed >> 29
    return mixed & (MAP_SIZE - 1)


class CoverageMap:
    """Edge bitmap plus the exact trap-path set.

    The bitmap drives the guided fuzzer's keep decision (cheap,
    collision-tolerant); the ``paths`` set drives human-facing reports
    (exact, no aliasing).  Both union order-independently.
    """

    def __init__(self):
        self.bits = bytearray(MAP_SIZE // 8)
        #: Exact keys seen: (world, cause_key, pc_block, hart).
        self.paths: set[tuple[str, int, int, int]] = set()
        #: Records attributed to a named fold source (a corpus-entry
        #: digest): folding the same source twice — a second guided run,
        #: two campaign cells replaying the shared corpus — counts once.
        self.source_records: dict[str, int] = {}
        #: Records with no source attribution (live recording, legacy
        #: documents); accumulates on every fold.
        self._unsourced = 0
        #: Per-hart previous slot for edge chaining; cleared per run.
        self._prev: dict[int, int] = {}
        #: Exact path key -> its bitmap slot (a memo of ``_slot``).
        self._slots: dict[tuple[str, int, int, int], int] = {}
        #: World member -> name, filled on first sight of each member
        #: (``Enum.name`` is a slow property to read per trap).
        self._world_names: dict = {None: "NATIVE"}

    @property
    def records(self) -> int:
        """Total traps folded in, deduplicated by fold source."""
        return self._unsourced + sum(self.source_records.values())

    # -- recording -------------------------------------------------------

    def begin_run(self) -> None:
        """Reset edge chaining at a run boundary, so the last trap of one
        run never forms a phantom edge into the first trap of the next
        (e.g. the native and virtualized halves of a differential case)."""
        self._prev.clear()

    def record(self, hartid: int, cause: int, is_interrupt: bool,
               pc: int, world) -> None:
        """Fold one recorded trap into the map.

        ``world`` is the hart's :class:`~repro.core.vcpu.World` (or None
        on a bare machine).  Called from the hart dispatch loop only when
        a map is attached, so this is the *enabled* path — the disabled
        path is the caller's single ``is not None`` branch.
        """
        world_names = self._world_names
        world_name = world_names.get(world)
        if world_name is None:
            world_name = world_names[world] = world.name
        # cause_key, inlined.
        ckey = (cause & 0xFF) | (_INTERRUPT_BIT if is_interrupt else 0)
        key = (world_name, ckey, (pc & U64) >> BLOCK_BITS, hartid)
        slot = self._slots.get(key)
        if slot is None:
            # ``paths`` only grows, so a memoised key is already in it.
            slot = self._slots[key] = _slot(
                key[2], ckey, WORLD_KEYS[world_name], hartid
            )
            self.paths.add(key)
        prev = self._prev
        edge = slot ^ (prev.get(hartid, 0) >> 1)
        self.bits[edge >> 3] |= 1 << (edge & 7)
        prev[hartid] = slot
        self._unsourced += 1

    # -- queries ---------------------------------------------------------

    def bit_count(self) -> int:
        return sum(bin(byte).count("1") for byte in self.bits)

    def path_count(self) -> int:
        return len(self.paths)

    def covered_pairs(self) -> set[tuple[str, int]]:
        """The (world, cause_key) projection of the exact path set."""
        return {(world, ckey) for world, ckey, _block, _hart in self.paths}

    def report(self) -> dict:
        """Human-facing coverage summary (``repro cov report``)."""
        space = trap_path_space()
        covered = self.covered_pairs()
        per_world: dict[str, dict] = {}
        for world in sorted(WORLD_KEYS):
            world_space = [pair for pair in space if pair[0] == world]
            world_covered = sorted(
                ckey for pair_world, ckey in covered if pair_world == world
            )
            per_world[world] = {
                "covered": len(world_covered),
                "total": len(world_space),
                "cause_keys": world_covered,
            }
        return {
            "records": self.records,
            "bitmap_bits": self.bit_count(),
            "paths": self.path_count(),
            "pairs_covered": len(covered),
            "pairs_total": len(space),
            "worlds": per_world,
        }

    # -- union / keep decision -------------------------------------------

    def union(self, other: "CoverageMap") -> None:
        """In-place union; commutative and associative over final state
        (edge-chain scratch state is per-run and never merged).  Sources
        both sides folded are counted once — the same corpus entry
        replayed by two campaign cells contributes identical records, so
        first-wins is exact, not an approximation."""
        for index, byte in enumerate(other.bits):
            self.bits[index] |= byte
        self.paths |= other.paths
        for source, count in other.source_records.items():
            self.source_records.setdefault(source, count)
        self._unsourced += other._unsourced

    def absorb(self, other: "CoverageMap",
               source: Optional[str] = None) -> tuple[int, int]:
        """Union ``other`` in; returns (new bitmap bits, new exact paths)
        — the guided fuzzer's keep signal.

        ``source`` names the executed input (a corpus-entry digest); a
        source already folded is a no-op, making fold-back idempotent.
        """
        if source is not None and source in self.source_records:
            return 0, 0
        new_bits = 0
        for index, byte in enumerate(other.bits):
            fresh = byte & ~self.bits[index]
            if fresh:
                new_bits += bin(fresh).count("1")
                self.bits[index] |= byte
        new_paths = len(other.paths - self.paths)
        self.paths |= other.paths
        if source is not None:
            self.source_records[source] = other.records
        else:
            for other_source, count in other.source_records.items():
                self.source_records.setdefault(other_source, count)
            self._unsourced += other._unsourced
        return new_bits, new_paths

    # -- serialization ---------------------------------------------------

    def to_doc(self) -> dict:
        doc = {
            "schema": COVERAGE_SCHEMA,
            "map_bits": MAP_BITS,
            "block_bits": BLOCK_BITS,
            "records": self.records,
            "bits": bytes(self.bits).hex(),
            "paths": sorted(list(path) for path in self.paths),
        }
        if self.source_records:
            doc["sources"] = dict(sorted(self.source_records.items()))
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "CoverageMap":
        if doc.get("schema") != COVERAGE_SCHEMA:
            raise ValueError(
                f"unsupported coverage schema {doc.get('schema')!r} "
                f"(expected {COVERAGE_SCHEMA!r})"
            )
        if doc.get("map_bits") != MAP_BITS or doc.get("block_bits") != BLOCK_BITS:
            raise ValueError("coverage map geometry mismatch")
        cov = cls()
        cov.bits = bytearray(bytes.fromhex(doc["bits"]))
        if len(cov.bits) != MAP_SIZE // 8:
            raise ValueError("coverage bitmap length mismatch")
        cov.paths = {
            (str(world), int(ckey), int(block), int(hart))
            for world, ckey, block, hart in doc["paths"]
        }
        cov.source_records = {str(source): int(count) for source, count
                              in doc.get("sources", {}).items()}
        # Legacy documents (no sources) carry all records unsourced.
        cov._unsourced = (int(doc.get("records", 0))
                          - sum(cov.source_records.values()))
        return cov

    def canonical_json(self) -> str:
        """Byte-stable serialization — equal maps serialize identically
        regardless of insertion or union order."""
        return json.dumps(self.to_doc(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
