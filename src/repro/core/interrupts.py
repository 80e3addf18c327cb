"""Virtual interrupt handling (§4.1, §4.3).

Miralis virtualizes M-mode interrupts: physical timer and software
interrupts are intercepted and re-injected into vM-mode when the virtual
firmware has them pending *and* enabled.  The check runs after each
emulated trap, because emulation can mask or unmask interrupts (e.g. a
write to the virtual ``mie``) — the ordering constraint §4.1 calls out and
whose violation is the "lost virtual interrupt" bug class of §6.5.

:func:`route_interrupt` is the one place that decides what the monitor
does with a physical M-level interrupt, and :func:`physical_m_enables`
which physical M sources stay enabled; the monitor and the
``interrupt-routing`` verification task both call them.
"""

from __future__ import annotations

from typing import Optional

from repro.core import bugs
from repro.core.vcpu import VirtContext, World
from repro.isa import constants as c

# Interrupts Miralis virtualizes (M-level; S-level interrupts are
# hard-delegated to the OS and never reach the monitor).
_M_INTERRUPTS = c.MIP_MTIP | c.MIP_MSIP | c.MIP_MEIP


def refresh_virtual_mip(vctx: VirtContext, mtime: int, virtual_mtimecmp: int,
                        msip_level: bool, meip_level: bool = False) -> None:
    """Recompute the hardware-driven bits of the virtual mip.

    vMTIP follows the *virtual* CLINT comparator, vMSIP the virtual msip
    register, vMEIP the (virtualized) external line.  The S-level bits are
    software-writable and left untouched.
    """
    vctx.mip = vctx.mip & ~_M_INTERRUPTS | _virtual_m_bits(
        mtime >= virtual_mtimecmp, msip_level, meip_level)


def _virtual_m_bits(timer: bool, software: bool, external: bool) -> int:
    return ((c.MIP_MTIP if timer else 0) | (c.MIP_MSIP if software else 0)
            | (c.MIP_MEIP if external else 0))


def pending_virtual_interrupt(vctx: VirtContext, world: World) -> Optional[int]:
    """The virtual M-level interrupt to inject, or None.

    In vM-mode the virtual mstatus.MIE gates delivery; while the OS runs
    (virtual mode S/U) M-level virtual interrupts are always deliverable,
    per the architectural rule that interrupts for a higher privilege
    level are enabled regardless of the global bit.
    """
    ready = vctx.mip & vctx.mie & ~vctx.mideleg
    if not ready:
        return None
    if world == World.FIRMWARE:
        if not vctx.mstatus & c.MSTATUS_MIE:
            return None
    return _highest(ready)


def _highest(ready: int) -> Optional[int]:
    for irq in c.INTERRUPT_PRIORITY:
        if ready & (1 << irq):
            return irq
    return None


# ----------------------------------------------------------------------
# Routing one physical M-level interrupt
# ----------------------------------------------------------------------

_OS = World.OS
_FIRMWARE = World.FIRMWARE

OFFLOAD_SERVE = "offload-serve"    # fast path: timer -> STIP, IPI -> SSIP
FORWARD_SSIP = "ack-forward-ssip"  # monitor IPI during vM: ack, SSIP for the OS
ACK_DROP = "ack-drop"              # no world owns it: clear the source, drop
RESUME_VM = "resume-vm"            # back to vM-mode (the post-trap check injects)
WORLD_SWITCH = "world-switch"      # OS -> vM-mode, inject the returned irq
RETURN_OS = "return-os"            # back to the OS, nothing delivered
#: Actions that clear the interrupt's physical source.
ACKING = frozenset({OFFLOAD_SERVE, FORWARD_SSIP, ACK_DROP})


def physical_m_enables(world: World, mstatus_mie, mie: int, timer_armed,
                       offload: bool, quarantined: bool) -> int:
    """The physical M-level sources to leave enabled: in vM-mode those
    the firmware could take now; in the OS world each for its owner — the
    firmware through its virtual enable (never once quarantined), the
    monitor for the deadline it armed and, with the fast path, for IPIs.
    """
    if world is _FIRMWARE:
        return mie & _M_INTERRUPTS if mstatus_mie else 0
    if quarantined:
        mie = c.MIP_MSIP
    elif offload:
        mie |= c.MIP_MSIP
    return mie & _M_INTERRUPTS | (c.MIP_MTIP if timer_armed else 0)


def route_interrupt(world: World, irq: int, mstatus_mie, mie: int, mip: int,
                    mideleg: int, msip, meip, virtual_due, timer_armed,
                    monitor_due, offload: bool, quarantined: bool) -> tuple:
    """Route one physical M interrupt: ``(action, irq, mie)``, with the
    irq served or injected (for ``RESUME_VM``, what the post-trap check
    injects) and the physical M enables once the action is done.

    ``mip`` contributes its S bits; the M bits follow the vCLINT msip
    shadow, the external line and the virtual deadline.  Each interrupt
    has one owner: the timer is the monitor's when the deadline it armed
    for the OS is due, else the firmware's when the virtual one is; an
    MSI is the firmware's when its shadow is set, else the monitor's when
    the fast path forwards OS IPIs; MEI is the firmware's.  One nobody
    owns is acked at its source and dropped (left pending, it re-traps
    forever) unless a virtual interrupt is injected first; the
    firmware's is injected when it can take it, else it stays pending,
    masked physically.
    """
    os_world = world is _OS
    monitor_ipis = offload or quarantined
    action, unowned = None, False
    if irq == c.IRQ_MTI and timer_armed and monitor_due:
        action, timer_armed = OFFLOAD_SERVE, False
    elif irq == c.IRQ_MTI:
        unowned = not virtual_due  # a stale comparator
    elif irq == c.IRQ_MSI and os_world and monitor_ipis:
        action = OFFLOAD_SERVE  # its ack also clears the msip shadow
    elif irq == c.IRQ_MSI and not msip:
        if monitor_ipis:
            action = FORWARD_SSIP
        else:
            unowned = not (os_world and "unowned_msi_storm" in bugs.active)
    if action is None:
        # A quarantined firmware takes nothing; vM-mode gates on its MIE.
        takes = not quarantined if os_world else mstatus_mie
        ready = (mip & ~_M_INTERRUPTS
                 | _virtual_m_bits(virtual_due, msip, meip)) & mie & ~mideleg
        inject = _highest(ready) if takes else None
        if inject is not None:
            # The injection clears the virtual MIE: every M source masked.
            return (WORLD_SWITCH if os_world else RESUME_VM), inject, 0
        if unowned:
            action = ACK_DROP
        else:
            action, irq = (RETURN_OS if os_world else RESUME_VM), None
    return action, irq, physical_m_enables(world, mstatus_mie, mie,
                                           timer_armed, offload, quarantined)
