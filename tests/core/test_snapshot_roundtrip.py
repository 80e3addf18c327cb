"""Property test (triage satellite S4): the watchdog activation
snapshot round-trips the *entire* virtual-context and per-hart vCLINT
state.

Replay determinism leans on this: a retried activation that silently
loses one CSR, one PMP shadow entry, or a pending self-IPI diverges
from a fresh replay of the same bundle — exactly the class of bug a
hand-enumerated field list invites.  The clobber below walks
``__dict__`` generically, so a future field added to ``VirtContext``
without snapshot support fails this test instead of slipping through.
The last test feeds the same clobber to every other component's own
``snapshot_state``/``restore_state`` pair.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.config import MiralisConfig  # noqa: E402
from repro.spec.platform import VISIONFIVE2  # noqa: E402
from repro.system import build_virtualized  # noqa: E402
from tests.snapshot.test_state_completeness import (  # noqa: E402
    COMPONENT_IDS,
    _instances,
    state_fields,
)

# One shared system: hypothesis forbids function-scoped fixtures, and
# snapshot/restore must leave it pristine between examples anyway.
SYSTEM = build_virtualized(
    VISIONFIVE2,
    miralis_config=MiralisConfig(watchdog_enabled=True,
                                 offload_enabled=False),
)

# Attributes on VirtContext that are wiring, not state.
NON_STATE = {"platform", "hartid", "csr_write_hook"}

XLEN_MASK = (1 << 64) - 1

csr_values = st.integers(min_value=0, max_value=XLEN_MASK)


def _structural(value):
    """Deep-copy into plain comparable structures."""
    if isinstance(value, dict):
        return {key: _structural(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_structural(item) for item in value]
    return value


def _reference_state(vctx, vclint, hartid):
    state = {name: _structural(value)
             for name, value in vctx.__dict__.items()
             if name not in NON_STATE}
    state["__vclint__"] = _structural(vclint.snapshot_hart(hartid))
    return state


def _clobber_fields(obj, names):
    """Scramble the named attributes, generically by value type."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool):
            setattr(obj, name, not value)
        elif isinstance(value, int):
            setattr(obj, name, (value ^ 0x5A5A_5A5A_5A5A_5A5A) & XLEN_MASK)
        elif isinstance(value, float):
            setattr(obj, name, value + 0.5)
        elif isinstance(value, bytearray):
            setattr(obj, name, bytearray(b ^ 0x5A for b in value) + b"~")
        elif isinstance(value, list):
            setattr(obj, name, [(item ^ 0x5A5A) & XLEN_MASK
                                if isinstance(item, int) else item
                                for item in value])
        elif isinstance(value, dict):
            setattr(obj, name, {key: (item ^ 0x5A5A) & XLEN_MASK
                                if isinstance(item, int) else item
                                for key, item in value.items()})


def _clobber(vctx, vclint, hartid):
    """Scramble every stateful attribute, generically over __dict__."""
    _clobber_fields(vctx, [name for name in vctx.__dict__
                           if name not in NON_STATE])
    vclint.msip[hartid] = 1 - vclint.msip[hartid]
    vclint.mtimecmp[hartid] ^= 0x5A5A_5A5A


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_snapshot_restore_round_trips_everything(data):
    miralis = SYSTEM.miralis
    hart = SYSTEM.machine.harts[0]
    vctx = miralis.vctx[0]
    vclint = miralis.vclint
    watchdog = miralis.watchdog

    # Drive the context into an arbitrary state.
    for name in ("mstatus", "mtvec", "mepc", "mcause", "mtval",
                 "mscratch", "mie", "mip", "medeleg", "mideleg",
                 "stvec", "sepc", "scause", "stval", "sscratch",
                 "satp", "stimecmp", "mcycle", "minstret"):
        setattr(vctx, name, data.draw(csr_values, label=name))
    for index in data.draw(st.lists(st.integers(0, 63), max_size=8),
                           label="pmp_indices"):
        vctx.pmpcfg[index] = data.draw(st.integers(0, 0xFF))
        vctx.pmpaddr[index] = data.draw(csr_values)
    vctx.virtual_mode = data.draw(st.sampled_from(["M", "S", "U"]))
    vctx.virtual_pmp_count = data.draw(st.integers(0, 16))
    vctx.vendor["marchid"] = data.draw(csr_values)
    vctx.h_csrs[0x680] = data.draw(csr_values)
    vclint.msip[0] = data.draw(st.integers(0, 1))
    vclint.mtimecmp[0] = data.draw(csr_values)

    reference = _reference_state(vctx, vclint, hartid=0)
    snap = watchdog._activation_snapshot(hart, vctx)

    _clobber(vctx, vclint, hartid=0)
    assert _reference_state(vctx, vclint, hartid=0) != reference

    watchdog._activation_restore(hart, vctx, snap)
    restored = _reference_state(vctx, vclint, hartid=0)
    assert restored == reference, (
        "snapshot/restore lost state; a retried activation would "
        "diverge from a fresh replay of the same bundle"
    )


def test_snapshot_is_a_copy_not_a_view():
    """Mutating the live context after arming must not bleed into the
    saved snapshot (the watchdog restores *pre*-activation state)."""
    miralis = SYSTEM.miralis
    hart = SYSTEM.machine.harts[0]
    vctx = miralis.vctx[0]
    watchdog = miralis.watchdog

    vctx.pmpcfg[3] = 0x1F
    vctx.vendor["marchid"] = 7
    snap = watchdog._activation_snapshot(hart, vctx)
    vctx.pmpcfg[3] = 0x00
    vctx.vendor["marchid"] = 99
    watchdog._activation_restore(hart, vctx, snap)
    assert vctx.pmpcfg[3] == 0x1F
    assert vctx.vendor["marchid"] == 7


# -- the same clobber, as one more input: every component's own pair -------


@pytest.mark.parametrize("name", [name for name in COMPONENT_IDS
                                  if name != "DefaultPolicy"])
def test_component_state_round_trips_the_clobber(name):
    """Each component's ``snapshot_state``/``restore_state`` pair survives
    the same generic clobber the activation snapshot does."""
    component = _instances()[name]
    reference = component.snapshot_state()
    _clobber_fields(component, state_fields(component))
    assert component.snapshot_state() != reference
    component.restore_state(reference)
    assert component.snapshot_state() == reference
