"""Exact-membership pins for the verification input-space generators.

The sweeps in Table 2 (and their campaign shards) are only as strong as
the spaces they enumerate, and those spaces are silent dependencies: a
generator that quietly drops half its patterns still produces a green
"0 divergences over N inputs" report.  These tests pin the *exact*
membership of each structured space — element by element, not just
counts — so any change to what gets swept is a visible diff here.
"""

from __future__ import annotations

import itertools

from repro.isa import constants as c
from repro.verif import spaces
from repro.verif.spaces import (
    BOUNDARY_VALUES,
    bit_walk,
    csr_value_space,
    interrupt_space,
    mstatus_space,
)


class TestBitWalk:
    def test_default_width_is_every_single_bit_of_64(self):
        assert list(bit_walk()) == [1 << i for i in range(64)]

    def test_narrow_width_yields_exactly_that_many_bits(self):
        assert list(bit_walk(8)) == [1, 2, 4, 8, 16, 32, 64, 128]
        assert list(bit_walk(1)) == [1]
        assert list(bit_walk(0)) == []

    def test_all_values_distinct_powers_of_two(self):
        values = list(bit_walk())
        assert len(set(values)) == 64
        assert all(v & (v - 1) == 0 and v for v in values)


class TestCsrValueSpace:
    def test_structured_prefix_is_boundaries_then_bit_walk(self):
        values = csr_value_space(samples=32)
        structured = len(BOUNDARY_VALUES) + 64
        assert tuple(values[: len(BOUNDARY_VALUES)]) == BOUNDARY_VALUES
        assert values[len(BOUNDARY_VALUES): structured] == list(bit_walk())
        assert len(values) == structured + 32

    def test_sampling_is_deterministic(self, monkeypatch):
        assert csr_value_space() == csr_value_space()
        a = csr_value_space(samples=8)
        monkeypatch.setattr(spaces, "CSR_SAMPLE_SEED", 1)
        b = csr_value_space(samples=8)
        assert a[: len(BOUNDARY_VALUES) + 64] == b[: len(BOUNDARY_VALUES) + 64]
        assert a[-8:] != b[-8:]

    def test_samples_stay_in_64_bits(self):
        assert all(0 <= v < (1 << 64) for v in csr_value_space(samples=64))


class TestMstatusSpace:
    @staticmethod
    def _expected():
        # Independent reconstruction of the documented space: the full
        # MPP x {MIE, SIE, MPRV, TW, TVM} product, then each value of
        # the first product block re-issued with one extra field OR'd
        # in.  Kept deliberately separate from the implementation so a
        # generator edit shows up as a membership diff.
        product = []
        for mpp in range(4):
            for mie, sie, mprv, tw, tvm in itertools.product((0, 1), repeat=5):
                product.append(
                    mpp << c.MSTATUS_MPP_SHIFT
                    | mie << 3
                    | sie << 1
                    | mprv << 17
                    | tw << 21
                    | tvm << 20
                )
        extras = [c.MSTATUS_MPIE, c.MSTATUS_SPIE, c.MSTATUS_SPP,
                  c.MSTATUS_FS, c.MSTATUS_SUM, c.MSTATUS_MXR,
                  c.MSTATUS_TSR, c.MSTATUS_SD]
        values = list(product)
        for extra in extras:
            values.extend(v | extra for v in product[:16])
        return values

    def test_exact_membership_and_order(self):
        assert mstatus_space() == self._expected()

    def test_counts(self):
        values = mstatus_space()
        # 4 MPP values x 2^5 control-bit combinations, then 8 extra
        # fields each over the first 16 product entries.
        assert len(values) == 4 * 32 + 8 * 16

    def test_every_mpp_value_appears(self):
        mpps = {(v >> c.MSTATUS_MPP_SHIFT) & 0x3 for v in mstatus_space()}
        assert mpps == {0, 1, 2, 3}

    def test_extra_field_blocks_carry_their_bit(self):
        values = mstatus_space()
        extras = (c.MSTATUS_MPIE, c.MSTATUS_SPIE, c.MSTATUS_SPP,
                  c.MSTATUS_FS, c.MSTATUS_SUM, c.MSTATUS_MXR,
                  c.MSTATUS_TSR, c.MSTATUS_SD)
        for index, extra in enumerate(extras):
            block = values[128 + 16 * index: 128 + 16 * (index + 1)]
            assert len(block) == 16
            assert all(v & extra == extra for v in block)


class TestInterruptSpace:
    INTERRUPT_BITS = [1 << irq for irq in c.INTERRUPT_PRIORITY]

    @classmethod
    def _mask(cls, selector: int) -> int:
        return sum(bit for i, bit in enumerate(cls.INTERRUPT_BITS)
                   if selector >> i & 1)

    def test_full_space_exact_membership(self):
        expected = []
        for mip_selector in range(64):
            mip = self._mask(mip_selector)
            for mie_selector in (0, 0b111111, 0b101010, 0b010101,
                                 mip_selector):
                mie = self._mask(mie_selector)
                for global_mie in (False, True):
                    for global_sie in (False, True):
                        expected.append(
                            (mip, mie, c.MIDELEG_MASK, global_mie,
                             global_sie)
                        )
        assert list(interrupt_space()) == expected
        assert len(expected) == 64 * 5 * 2 * 2

    def test_selector_restriction_is_exact(self):
        # Sharding passes an explicit selector subset; the shard must
        # contain exactly that subset's tuples, in selector order.
        got = list(interrupt_space(mip_selectors=[5, 0]))
        expected = []
        for selector in (5, 0):
            mip = self._mask(selector)
            for mie_selector in (0, 0b111111, 0b101010, 0b010101, selector):
                mie = self._mask(mie_selector)
                for global_mie in (False, True):
                    for global_sie in (False, True):
                        expected.append((mip, mie, c.MIDELEG_MASK,
                                         global_mie, global_sie))
        assert got == expected
        # Selector 5 = priority positions 0 and 2 = MEI | MTI pending.
        assert got[0][0] == (1 << c.IRQ_MEI) | (1 << c.IRQ_MTI)

    def test_shards_reassemble_the_full_space(self):
        whole = list(interrupt_space())
        shards = [list(interrupt_space(mip_selectors=range(lo, lo + 16)))
                  for lo in (0, 16, 32, 48)]
        assert [t for shard in shards for t in shard] == whole

    def test_mideleg_is_always_the_full_s_mask(self):
        assert {t[2] for t in interrupt_space()} == {c.MIDELEG_MASK}

    def test_mip_patterns_cover_all_64_subsets(self):
        mips = {t[0] for t in interrupt_space()}
        assert len(mips) == 64
        assert all(mip & ~c.MIP_MASK == 0 for mip in mips)
