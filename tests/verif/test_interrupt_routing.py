"""The interrupt-routing task: one routing function, checked over its
whole input space, and the monitor really running it."""

from __future__ import annotations

import dataclasses

from repro.core import interrupts
from repro.core.interrupts import (
    ACK_DROP,
    FORWARD_SSIP,
    OFFLOAD_SERVE,
    RESUME_VM,
    WORLD_SWITCH,
    route_interrupt,
)
from repro.core.vcpu import World
from repro.faults.chaos import run_chaos
from repro.hart import clint as clint_regs
from repro.isa import constants as c
from repro.os_model.workloads import SMP_WORKLOADS
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized
from repro.verif.routing import IrqInputs, routing_space, run_routing_check


def _unowned_msi(world: World) -> IrqInputs:
    return IrqInputs(world, c.IRQ_MSI, True, c.MIP_MSIP, 0, c.MIDELEG_MASK,
                     False, False, False, False, False, False, False)


def test_every_routed_interrupt_makes_progress():
    report = run_routing_check()
    assert report.passed, report.first_failures()
    assert report.inputs_checked == 6912


def test_space_reaches_every_action_but_an_undelivered_return():
    """Under the space's preconditions every OS-world interrupt is served,
    acked or injected: ``RETURN_OS`` is only the fallback for an input
    that breaks them."""
    actions = {route_interrupt(*s)[0] for s in routing_space()}
    assert actions == {OFFLOAD_SERVE, FORWARD_SSIP, ACK_DROP, RESUME_VM,
                       WORLD_SWITCH}


def test_unowned_msi_is_acked_and_dropped_in_either_world():
    for world in World:
        action, _, mie = route_interrupt(*_unowned_msi(world))
        assert action == ACK_DROP
        # The enable stays on: the next IPI the firmware does send
        # (virtual msip set) must still interrupt this hart.
        assert mie & c.MIP_MSIP


def test_os_world_msi_storm_cell_state_is_acked_by_the_monitor():
    """The monitor acks the physical CLINT msip and returns to the OS."""
    system = build_virtualized(VISIONFIVE2, offload=False)
    machine = system.machine
    miralis = system.miralis
    hart = machine.harts[0]
    vctx = miralis.vctx[0]
    miralis.world[0] = World.OS
    vctx.mie |= c.MIP_MSIP
    machine.clint.write(clint_regs.MSIP_BASE, 4, 1)
    mepc = hart.state.csr.mepc = 0x8020_0000
    miralis._handle_physical_interrupt(hart, vctx, c.IRQ_MSI, mepc)
    assert machine.clint.msip[0] == 0
    assert not vctx.mip & (c.MIP_MSIP | c.MIP_SSIP)
    assert hart.state.pc == mepc
    assert miralis.world[0] == World.OS


def test_installed_enables_are_the_routes(monkeypatch):
    """After every routed interrupt, the physical M enables the monitor
    installs are the ones the route predicted: the verified function's
    output is what runs."""
    routes = []
    original = interrupts.route_interrupt

    def recording(*inputs):
        route = original(*inputs)
        routes.append(route)
        return route

    monkeypatch.setattr("repro.core.miralis.route_interrupt", recording)
    from repro.core.miralis import Miralis

    checked = []
    handle = Miralis.handle  # every monitor entry: boots and traps

    def handle_trap(self, machine, hart):
        before = len(routes)
        handle(self, machine, hart)
        if len(routes) == before + 1:
            installed = hart.state.csr.mie & ~c.SIP_MASK
            checked.append((routes[-1], installed))

    monkeypatch.setattr(Miralis, "handle", handle_trap)
    platform = dataclasses.replace(VISIONFIVE2, num_harts=2)
    for name, workloads in sorted(SMP_WORKLOADS.items()):
        for offload in (True, False):
            primary, secondary = workloads()
            build_virtualized(platform, workload=primary,
                              secondary_workload=secondary,
                              start_secondaries=True,
                              offload=offload).run_smp()
    assert run_chaos("opensbi", "csr-chaos", seed=119).ok
    assert {action for (action, _, _), _ in checked} == {
        OFFLOAD_SERVE, WORLD_SWITCH, ACK_DROP}
    for route, installed in checked:
        assert route[2] == installed, route


def test_firmware_comparator_store_retires_the_os_deadline():
    """One timer owner per hart: the firmware's mtimecmp store clobbers
    the deadline the fast path armed for the OS, as a native store does."""
    system = build_virtualized(VISIONFIVE2)
    miralis = system.miralis
    vclint = miralis.vclint
    vclint.set_monitor_deadline(0, 5_000)
    miralis.offload.timer_armed[0] = True
    vclint._write(clint_regs.MTIMECMP_BASE, 8, 9_000)
    assert not miralis.offload.timer_armed[0]
    assert vclint.monitor_mtimecmp[0] == (1 << 64) - 1
    assert system.machine.clint.mtimecmp[0] == 9_000
