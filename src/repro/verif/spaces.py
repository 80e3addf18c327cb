"""Finite input-space generators for the verification harness.

The Kani model checker in the paper explores CSR and instruction spaces
symbolically.  Our substitute explores them with (a) exhaustive structured
enumeration — boundary patterns, single-bit walks over every field — and
(b) deterministic pseudo-random sampling over the full 64-bit space.
Structured enumeration catches exactly the "long tail of edge cases in
CSR bit patterns" §6.5 reports, which uniform random sampling tends to
miss.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Optional

from repro.isa import constants as c
from repro.isa.instructions import Instruction

U64 = (1 << 64) - 1

#: Classic WARL-buster boundary patterns.
BOUNDARY_VALUES = (
    0x0000_0000_0000_0000,
    0xFFFF_FFFF_FFFF_FFFF,
    0x0000_0000_FFFF_FFFF,
    0xFFFF_FFFF_0000_0000,
    0xAAAA_AAAA_AAAA_AAAA,
    0x5555_5555_5555_5555,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x7FFF_FFFF_FFFF_FFFF,
    0x8000_0000_0000_0001,
    0xDEAD_BEEF_CAFE_F00D,
)


def bit_walk(width: int = 64) -> Iterator[int]:
    """Every single-bit value (catches per-bit legalization errors)."""
    for position in range(width):
        yield 1 << position


#: Seed of the random tail of :func:`csr_value_space`.
CSR_SAMPLE_SEED = 2025


def csr_value_space(samples: int = 32) -> list[int]:
    """The value space used to test one CSR write."""
    rng = random.Random(CSR_SAMPLE_SEED)
    values = list(BOUNDARY_VALUES)
    values.extend(bit_walk())
    values.extend(rng.getrandbits(64) for _ in range(samples))
    return values


def mstatus_space() -> list[int]:
    """Field-product space for mstatus (all MPP values x key control bits)."""
    values = []
    for mpp in range(4):
        for bits in itertools.product((0, 1), repeat=5):
            mie, sie, mprv, tw, tvm = bits
            values.append(
                (mpp << c.MSTATUS_MPP_SHIFT)
                | (mie << 3)
                | (sie << 1)
                | (mprv << 17)
                | (tw << 21)
                | (tvm << 20)
            )
    # Plus the previous-enable and dirtiness fields.
    for extra in (c.MSTATUS_MPIE, c.MSTATUS_SPIE, c.MSTATUS_SPP,
                  c.MSTATUS_FS, c.MSTATUS_SUM, c.MSTATUS_MXR, c.MSTATUS_TSR,
                  c.MSTATUS_SD):
        values.extend(v | extra for v in list(values[:16]))
    return values


def interrupt_space(
    mip_selectors: Optional[Iterable[int]] = None,
) -> Iterator[tuple[int, int, int, bool, bool]]:
    """(mip, mie, mideleg, MIE, SIE) combinations over the six interrupts.

    Exhaustive over per-interrupt pending x enabled plus global enables —
    the space whose mishandling loses virtual interrupts (§6.5).
    ``mip_selectors`` restricts the sweep to a subset of the 64 pending
    patterns, which is how the campaign runner shards this space; the
    default covers all of them.
    """
    interrupt_bits = [1 << irq for irq in c.INTERRUPT_PRIORITY]
    if mip_selectors is None:
        mip_selectors = range(1 << 6)
    for mip_selector in mip_selectors:
        mip = sum(bit for i, bit in enumerate(interrupt_bits) if mip_selector >> i & 1)
        for mie_selector in (0, 0b111111, 0b101010, 0b010101, mip_selector):
            mie = sum(
                bit for i, bit in enumerate(interrupt_bits) if mie_selector >> i & 1
            )
            for global_mie in (False, True):
                for global_sie in (False, True):
                    yield mip, mie, c.MIDELEG_MASK, global_mie, global_sie


def csr_instruction_space(csr_addresses: Iterable[int]) -> Iterator[Instruction]:
    """All CSR instruction forms over the given CSR set.

    For each CSR: every opcode variant, with representative rd/rs1
    choices including the architecturally special x0.
    """
    register_choices = ((0, 0), (1, 2), (10, 11), (5, 0), (0, 7), (31, 30))
    for csr in csr_addresses:
        for mnemonic in ("csrrw", "csrrs", "csrrc"):
            for rd, rs1 in register_choices:
                yield Instruction(mnemonic, rd=rd, rs1=rs1, csr=csr)
        for mnemonic in ("csrrwi", "csrrsi", "csrrci"):
            for rd, zimm in ((0, 0), (1, 31), (10, 5), (7, 0)):
                yield Instruction(mnemonic, rd=rd, rs1=zimm, csr=csr)


def system_instruction_space() -> Iterator[Instruction]:
    """The non-CSR privileged instructions."""
    yield Instruction("mret")
    yield Instruction("sret")
    yield Instruction("wfi")
    yield Instruction("ecall")
    yield Instruction("sfence.vma")
    yield Instruction("fence.i")


#: Seed of the random multi-entry part of :func:`pmp_config_space`; the
#: faithful-execution cell keys index into that fixed sequence.
_PMP_CONFIG_SEED = 7


def pmp_config_space(entries: int) -> Iterator[tuple[list[int], list[int]]]:
    """(pmpcfg bytes, pmpaddr values) samples over ``entries`` entries.

    Covers every addressing mode, permission combination (including the
    reserved W=1/R=0), locks, and TOR chains.
    """
    rng = random.Random(_PMP_CONFIG_SEED)
    modes = [int(m) << c.PMP_A_SHIFT for m in c.PmpAddressMode]
    perms = [0, c.PMP_R, c.PMP_R | c.PMP_W, c.PMP_R | c.PMP_X,
             c.PMP_R | c.PMP_W | c.PMP_X, c.PMP_W]  # includes reserved W-only
    base_addresses = [0x2000_0000, 0x2100_0000, 0x2000_3FFF, 0x0]
    # Single-entry sweeps.
    for mode in modes:
        for perm in perms:
            for address in base_addresses:
                cfg = [0] * entries
                addr = [0] * entries
                cfg[0] = mode | perm
                addr[0] = address
                yield cfg, addr
    # Random multi-entry configurations.
    for _ in range(64):
        cfg = [
            rng.choice(modes) | rng.choice(perms) | (c.PMP_L if rng.random() < 0.2 else 0)
            for _ in range(entries)
        ]
        addr = [rng.getrandbits(40) for _ in range(entries)]
        yield cfg, addr


def address_probe_points(machine_config) -> list[int]:
    """Addresses at which faithful execution is checked.

    Includes region boundaries (the off-by-one habitat) and interior
    points of RAM and each device window.
    """
    points = set()
    interesting = [
        machine_config.ram_base,
        machine_config.ram_base + 0x1000,
        machine_config.clint_base,
        machine_config.clint_base + 0xBFF8,
        machine_config.plic_base,
        machine_config.uart_base,
    ]
    for base in interesting:
        points.update((base - 8, base - 1, base, base + 8))
    points.update(
        machine_config.ram_base + offset
        for offset in (0x0020_0000, 0x0020_0000 - 8, 0x0030_0000, 0x0400_0000,
                       0x0800_0000, 0x0FFF_FFF8)
    )
    return sorted(p for p in points if p >= 0)
