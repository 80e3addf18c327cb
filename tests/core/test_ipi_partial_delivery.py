"""Mixed valid/invalid SBI hart masks must deliver partially, then fail.

Regression tests for the offload fast path validating the *whole* mask
before delivering anything: ``_ipi_targets`` returned ``None`` as soon as
any masked hart was out of range, so ``send_ipi``/``rfence`` with a mask
mixing valid and invalid targets delivered *no* IPIs.  The firmware (and
therefore the native deployment and the no-offload slow path) walks the
mask in bit order and delivers to each valid target *until* it hits the
first invalid one — partial delivery the OS observes as real software
interrupts alongside the ``ERR_INVALID_PARAM`` return.
"""

from __future__ import annotations

from repro.isa import constants as c
from repro.sbi import constants as sbi
from repro.sbi.types import SbiCall
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized

U64 = (1 << 64) - 1
INVALID = sbi.SbiError.ERR_INVALID_PARAM


def _offload_parts():
    system = build_virtualized(VISIONFIVE2)
    machine = system.machine
    hart = machine.harts[0]
    return system, machine, system.miralis.offload, hart, system.miralis.vctx[0]


def test_mixed_mask_delivers_valid_targets_before_failing():
    """mask=0x401 (hart 0 valid, hart 10 invalid): hart 0's MSIP must be
    set even though the call fails — matching the firmware's bit-order
    walk."""
    system, machine, offload, hart, vctx = _offload_parts()
    ret = offload._sbi_send_ipi(hart, vctx, 0x401, 0)
    assert not ret.is_success
    assert ret.error == INVALID
    assert machine.clint.msip[0] == 1, (
        "fast path validated the whole mask up front: the valid targets "
        "before the first invalid one were never delivered"
    )


def test_valid_targets_after_first_invalid_are_not_delivered():
    """mask covering harts 2,10,3 (bit order 2,3,10): harts 2 and 3 are
    delivered, then the walk fails at 10; nothing after bit order
    matters here, but targets below the invalid bit must be set."""
    system, machine, offload, hart, vctx = _offload_parts()
    ret = offload._sbi_send_ipi(hart, vctx, (1 << 2) | (1 << 3) | (1 << 10), 0)
    assert ret.error == INVALID
    assert machine.clint.msip[2] == 1
    assert machine.clint.msip[3] == 1


def test_invalid_first_bit_delivers_nothing():
    """mask_base pushes the lowest set bit out of range: no delivery."""
    system, machine, offload, hart, vctx = _offload_parts()
    ret = offload._sbi_send_ipi(hart, vctx, 0b11, machine.config.num_harts)
    assert ret.error == INVALID
    assert list(machine.clint.msip) == [0] * machine.config.num_harts


def test_rfence_mixed_mask_matches_ipi_semantics():
    """rfence shares the delivery walk: partial delivery, then failure."""
    system, machine, offload, hart, vctx = _offload_parts()
    call = SbiCall(eid=sbi.EXT_RFENCE, fid=sbi.FN_RFENCE_FENCE_I,
                   args=(0x21, 0))  # hart 0 valid, hart 5 invalid
    ret = offload._sbi_rfence(hart, vctx, call)
    assert ret.error == INVALID
    assert machine.clint.msip[0] == 1


def test_end_to_end_mixed_mask_ssi_matches_native():
    """The OS observes the partially delivered self-IPI as one SSI, the
    same count the native firmware produces for the same mask."""
    seen = {}

    def workload(kernel, ctx):
        error, _ = kernel.sbi_send_ipi(ctx, 0x401, 0)
        ctx.compute(200)  # delivery point
        seen["error"] = error
        seen["ssi"] = kernel.software_interrupts

    system = build_virtualized(VISIONFIVE2, workload=workload)
    system.run()
    assert seen["error"] == INVALID & U64
    assert seen["ssi"] == 1, (
        "virtualized+offload dropped the valid self-IPI that native "
        "firmware delivers before failing on the invalid target"
    )


def test_first_invalid_bit_above_bit_32_stops_the_walk():
    """The walk visits set bits only, lowest first: harts 1 and 3 are
    delivered, then hart 40 fails the call and bit 50 is never reached."""
    system, machine, offload, hart, vctx = _offload_parts()
    mask = (1 << 1) | (1 << 3) | (1 << 40) | (1 << 50)
    assert offload._ipi_targets(mask, 0) == ([1, 3], False)
    ret = offload._sbi_send_ipi(hart, vctx, mask, 0)
    assert ret.error == INVALID
    assert [machine.clint.msip[h] for h in (1, 3)] == [1, 1]
    assert machine.clint.msip[0] == machine.clint.msip[2] == 0


def test_nonzero_mask_base_offsets_every_target():
    """Bit i names hart mask_base + i, for valid and invalid bits alike."""
    system, machine, offload, hart, vctx = _offload_parts()
    num_harts = machine.config.num_harts
    assert offload._ipi_targets(0b101, 1) == ([1, 3], True)
    assert offload._ipi_targets((1 << 35) | 1, 2) == ([2], False)
    assert offload._ipi_targets(1 << 63, 0) == ([], False)
    assert offload._ipi_targets(0, 1) == ([], True)
    assert offload._ipi_targets(0b1, U64) == (list(range(num_harts)), True)
    ret = offload._sbi_send_ipi(hart, vctx, 0b101, 1)
    assert ret.is_success
    assert list(machine.clint.msip) == [0, 1, 0, 1]
