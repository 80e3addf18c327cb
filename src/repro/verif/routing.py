"""Interrupt-routing progress checking (an extension of Table 2).

Runs the monitor's own routing function
(:func:`repro.core.interrupts.route_interrupt`) over every input it can
be called with and checks that each physical M-level interrupt makes
progress: it is served by the fast path, injected into the firmware, or
its physical source is acked or masked once the action is done.  Routing
back to the same world with the line still pending and enabled re-traps
forever — an interrupt storm, the runaway form of §6.5's "lost virtual
interrupt" class.

The space is exhaustive over the fields the function reads, restricted by
three facts that hold before any interrupt arrives:

- the interrupt was enabled physically: its bit is in
  :func:`~repro.core.interrupts.physical_m_enables` of the state (the
  enables the monitor installed after the previous trap);
- an external interrupt arrives with its line high;
- the vCLINT keeps one timer owner per hart: arming a deadline for the
  OS retires the firmware's, and a comparator store retires the OS's, so
  an armed OS deadline never coexists with a due virtual one.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator, NamedTuple

from repro.core.interrupts import ACKING, physical_m_enables, route_interrupt
from repro.core.vcpu import World
from repro.isa import constants as c
from repro.verif.report import CheckReport, Divergence

#: Physical M-level interrupts the monitor routes.
ROUTED_IRQS = (c.IRQ_MSI, c.IRQ_MTI, c.IRQ_MEI)

#: (virtual mip, mie, mideleg) S-level patterns: nothing S-level pending,
#: an SSI the firmware delegated, and one it claims for itself.
_S_LEVEL = (
    (0, 0, c.MIDELEG_MASK),
    (c.MIP_SSIP, c.MIP_SSIP, c.MIDELEG_MASK),
    (c.MIP_SSIP, c.MIP_SSIP, 0),
)

#: (virtual deadline due, OS deadline armed, OS deadline due).
_TIMERS = ((False, False, False), (True, False, False),
           (False, True, False), (False, True, True))


class IrqInputs(NamedTuple):
    """One input of :func:`~repro.core.interrupts.route_interrupt`, in its
    parameter order."""

    world: World
    irq: int
    mstatus_mie: bool
    mie: int
    mip: int
    mideleg: int
    msip: bool
    meip: bool
    virtual_due: bool
    timer_armed: bool
    monitor_due: bool
    offload: bool
    quarantined: bool


def routing_space() -> Iterator[IrqInputs]:
    """Every routing input that can reach the monitor (module docstring)."""
    m_enables = range(8)  # MSIE, MTIE, MEIE in every combination
    for world, irq, mstatus_mie, m_bits, s_level, msip, meip, timer, \
            offload, quarantined in itertools.product(
                (World.FIRMWARE, World.OS), ROUTED_IRQS, (False, True), m_enables, _S_LEVEL,
                (False, True), (False, True), _TIMERS, (False, True),
                (False, True)):
        if irq == c.IRQ_MEI and not meip:
            continue
        mie = s_level[1] | (
            (c.MIP_MSIP if m_bits & 1 else 0)
            | (c.MIP_MTIP if m_bits & 2 else 0)
            | (c.MIP_MEIP if m_bits & 4 else 0)
        )
        virtual_due, armed, monitor_due = timer
        if not physical_m_enables(world, mstatus_mie, mie, armed, offload,
                                  quarantined) & (1 << irq):
            continue
        yield IrqInputs(world, irq, mstatus_mie, mie, s_level[0],
                        s_level[2], msip, meip, virtual_due, armed,
                        monitor_due, offload, quarantined)


def describe(s: IrqInputs) -> str:
    """One routing input, as a divergence names it."""
    return (
        f"world={s.world.name.lower()} irq={s.irq} msip={int(s.msip)} "
        f"MIE={int(s.mstatus_mie)} mie={s.mie:#x} mip={s.mip:#x} "
        f"mideleg={s.mideleg:#x} meip={int(s.meip)} "
        f"virtual_due={int(s.virtual_due)} armed={int(s.timer_armed)} "
        f"monitor_due={int(s.monitor_due)} offload={int(s.offload)} "
        f"quarantined={int(s.quarantined)}"
    )


def run_routing_check(task: str = "interrupt-routing") -> CheckReport:
    """Check progress for every input in :func:`routing_space`."""
    report = CheckReport(task=task)
    start = time.perf_counter()
    for inputs in routing_space():
        action, target, mie = route_interrupt(*inputs)
        report.inputs_checked += 1
        if action in ACKING:
            continue  # served or acked at its source
        if target is not None:
            continue  # injected into the firmware
        if not mie & (1 << inputs.irq):
            continue  # masked until its owner can take it
        report.divergences.append(Divergence(
            task, "progress", "served, injected, acked or masked",
            f"{action} with the line enabled", context=describe(inputs),
        ))
    report.elapsed_seconds = time.perf_counter() - start
    return report
