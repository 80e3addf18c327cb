"""A passed deadline must not hide a later one from a waiting hart.

The hart ``wfi`` and the vM-mode firmware ``wfi`` each fast-forward the
clock to a wake-up deadline.  Both used to take the earliest armed
deadline; when that one had already passed without waking the hart (its
interrupt disabled, or the monitor's own deadline, which never wakes the
firmware) they halted with "no wakeup source armed" although a later
deadline was still armed.  The SMP scheduler's clock jump skips to the
earliest *future* deadline, and now all three share that rule.
"""

from __future__ import annotations

from repro.hart.machine import Machine
from repro.isa import constants as c
from repro.spec.platform import RVA23_MACHINE
from repro.system import build_virtualized


def test_hart_wfi_wakes_on_stimecmp_behind_a_passed_mtimecmp():
    machine = Machine(RVA23_MACHINE)
    machine.charge(10_000)
    hart = machine.harts[0]
    csr = hart.state.csr
    csr.menvcfg |= c.MENVCFG_STCE
    csr.mie = c.MIP_STIP  # the passed mtimecmp raises MTIP, not enabled
    machine.clint.mtimecmp[0] = 0
    csr.stimecmp = machine.read_mtime() + 1000
    hart.state.waiting_for_interrupt = True

    machine.advance_until_interrupt(hart)

    assert not machine.halted, machine.halt_reason
    assert not hart.state.waiting_for_interrupt
    assert machine.read_mtime() == 1021


def test_firmware_wfi_wakes_on_virtual_deadline_behind_a_passed_monitor_one():
    system = build_virtualized()
    machine = system.machine
    machine.charge(10_000)
    miralis = system.miralis
    hart, vctx = machine.harts[0], miralis.vctx[0]
    vctx.mie = c.MIP_MTIP
    miralis.vclint.mtimecmp[0] = machine.read_mtime() + 1000
    miralis.vclint.monitor_mtimecmp[0] = 5  # passed; never wakes vM-mode

    miralis._firmware_wfi(hart, vctx)

    assert not machine.halted, machine.halt_reason
    assert vctx.mip & c.MIP_MTIP
    assert machine.read_mtime() == 1027
