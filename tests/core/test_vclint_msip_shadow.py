"""The virtual CLINT must keep its own per-hart msip view.

Regression tests for monitor IPI traffic leaking into the firmware's
virtual CLINT: its msip view read the *physical* CLINT, so an IPI the
monitor injected on the OS's behalf (offload fast path) showed up in the
firmware's virtual MSIP — the firmware would observe machine software
interrupts it never sent, and the monitor's virtual-interrupt injection
logic would wake the virtual firmware for traffic that was never its
business.  The fix shadows msip per hart: firmware writes update the
shadow (and still pass through physically — an IPI must really interrupt
the target hart); monitor traffic touches only the physical CLINT.
"""

from __future__ import annotations

from repro.core.vcpu import World
from repro.hart import clint as clint_regs
from repro.isa import constants as c
from repro.isa.instructions import Instruction
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized


def _firmware_load_msip(system, hartid):
    """The value a firmware ``lw`` of ``msip[hartid]`` reads."""
    machine = system.machine
    return system.miralis.vclint.emulate_access(
        machine.harts[0], Instruction("lw", rd=5),
        machine.clint.msip_address(hartid))


def test_monitor_ipi_does_not_leak_into_virtual_msip():
    """A physical-only CLINT write (monitor fast-path IPI) must be
    invisible in the firmware's virtual msip view."""
    system = build_virtualized(VISIONFIVE2)
    machine = system.machine
    vclint = system.miralis.vclint
    machine.clint.write(clint_regs.MSIP_BASE + 4 * 0, 4, 1)
    assert machine.clint.msip[0] == 1
    assert not vclint.msip[0], (
        "monitor-injected IPI leaked into the firmware's virtual MSIP view"
    )
    assert _firmware_load_msip(system, 0) == 0


def test_firmware_msip_write_sets_both_views():
    """A firmware vclint msip store must update the virtual shadow AND
    physically interrupt the target hart."""
    system = build_virtualized(VISIONFIVE2)
    machine = system.machine
    vclint = system.miralis.vclint
    vclint._write(clint_regs.MSIP_BASE + 4 * 1, 4, 1)
    assert vclint.msip[1]
    assert machine.clint.msip[1] == 1
    assert _firmware_load_msip(system, 1) == 1
    vclint._write(clint_regs.MSIP_BASE + 4 * 1, 4, 0)
    assert not vclint.msip[1]
    assert machine.clint.msip[1] == 0


def test_firmware_world_msi_forwarded_not_stormed():
    """A monitor-destined MSI arriving while the hart runs virtual
    firmware must be acked and forwarded as SSIP for the OS — never
    injected into the firmware, never left pending (interrupt storm)."""
    system = build_virtualized(VISIONFIVE2)
    machine = system.machine
    miralis = system.miralis
    hart = machine.harts[0]
    vctx = miralis.vctx[0]
    assert miralis.world[0] == World.FIRMWARE  # pre-boot default
    machine.clint.write(clint_regs.MSIP_BASE, 4, 1)  # monitor IPI in flight
    mepc = hart.state.csr.mepc = 0x8020_0000
    miralis._handle_physical_interrupt(hart, vctx, c.IRQ_MSI, mepc)
    # Acked at the CLINT (no immediate re-trap) ...
    assert machine.clint.msip[0] == 0
    # ... forwarded to the OS's S-level view ...
    assert vctx.mip & c.MIP_SSIP
    assert hart.state.csr.mip_sw & c.MIP_SSIP
    # ... and NOT turned into a virtual machine-software interrupt.
    assert not vctx.mip & c.MIP_MSIP
    assert hart.state.pc == mepc
    assert miralis.world[0] == World.FIRMWARE


def test_offload_ipi_run_leaves_virtual_msip_clear():
    """End to end: a workload whose IPIs all ride the fast path leaves
    the firmware's virtual msip untouched for the whole run."""

    def workload(kernel, ctx):
        kernel.sbi_send_ipi(ctx, 0b1, 0)
        ctx.csrr(c.CSR_SSCRATCH)  # delivery point
        kernel.sbi_send_ipi(ctx, 0b1, 0)
        ctx.csrr(c.CSR_SSCRATCH)

    system = build_virtualized(VISIONFIVE2, workload=workload)
    system.run()
    assert system.kernel.software_interrupts == 2
    vclint = system.miralis.vclint
    for hartid in range(system.machine.config.num_harts):
        assert not vclint.msip[hartid]
