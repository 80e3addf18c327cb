"""Faithful execution checking (Definition 2, Figure 8).

While the firmware executes *unprivileged* instructions directly, the
monitor must have programmed the host hardware — above all the physical
PMP — so that execution behaves as on the reference machine.  Following
§6.4: initialize symbolic virtual PMP registers, compute the physical
registers with the monitor's install function, and use the reference
``pmpCheck`` to compare outcomes:

* accesses to Miralis memory or an emulated device must fail physically
  (so they trap to the monitor), and
* every other address must succeed or fail identically under the
  physical and the virtual PMP configuration.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.core.vcpu import VirtContext, World
from repro.isa import constants as c
from repro.spec.pmp import pmp_check
from repro.verif.report import CheckReport, Divergence

_ACCESS_TYPES = (c.AccessType.READ, c.AccessType.WRITE, c.AccessType.EXECUTE)


def _virtual_allows(vctx: VirtContext, address: int, size: int,
                    access: c.AccessType, mode: c.PrivilegeLevel) -> bool:
    """What the reference machine with the virtual PMPs would decide."""
    return bool(
        pmp_check(
            vctx.pmpcfg,
            vctx.pmpaddr,
            address,
            size,
            access,
            mode,
            pmp_count=vctx.virtual_pmp_count,
        )
    )


def _physical_allows(hart, address: int, size: int, access: c.AccessType,
                     mode: c.PrivilegeLevel) -> bool:
    csr_file = hart.state.csr
    return bool(
        pmp_check(
            csr_file.pmpcfg,
            csr_file.pmpaddr,
            address,
            size,
            access,
            mode,
            pmp_count=hart.machine.config.pmp_count,
        )
    )


def check_pmp_configuration(
    miralis,
    hart,
    vctx: VirtContext,
    addresses: Iterable[int],
    world: World,
    size: int = 8,
    task: str = "faithful-execution",
) -> list[Divergence]:
    """Compare physical vs reference access decisions for one vPMP config.

    The monitor's :meth:`PmpVirtualizer.install` must already have run for
    ``world``.  In the firmware world the effective reference mode is M
    (vM-mode emulates machine mode); in the OS world it is S.
    """
    divergences: list[Divergence] = []
    mode = c.M_MODE if world == World.FIRMWARE else c.S_MODE
    physical_mode = c.U_MODE if world == World.FIRMWARE else c.S_MODE
    policy_is_transparent = miralis.policy.num_pmp_entries() == 0
    for address in addresses:
        protected = miralis.vpmp.protects(address, size)
        for access in _ACCESS_TYPES:
            physical = _physical_allows(hart, address, size, access, physical_mode)
            if world == World.FIRMWARE and protected is not None:
                # Monitor memory and emulated devices must always fault so
                # the access traps into the monitor.
                if physical:
                    divergences.append(
                        Divergence(
                            task,
                            f"protected:{protected}",
                            False,
                            True,
                            context=f"addr={address:#x} access={access.value}",
                        )
                    )
                continue
            if world == World.OS and protected is not None:
                continue  # the OS is equally blocked; emulation not required
            if not policy_is_transparent:
                continue  # policy entries intentionally diverge from the
                # reference machine; their semantics are policy-specific.
            reference = _virtual_allows(vctx, address, size, access, mode)
            if physical != reference:
                divergences.append(
                    Divergence(
                        task,
                        "access-decision",
                        reference,
                        physical,
                        context=(
                            f"addr={address:#x} access={access.value} "
                            f"world={world.value}"
                        ),
                    )
                )
    return divergences


def run_execution_check(
    system,
    pmp_configs: Iterable[tuple[list[int], list[int]]],
    task: str = "faithful-execution",
) -> CheckReport:
    """Sweep virtual PMP configurations through install + pmpCheck compare.

    ``system`` is a built (virtualized) :class:`repro.system.System`.
    """
    from repro.verif.spaces import address_probe_points

    miralis = system.miralis
    hart = system.machine.harts[0]
    vctx = miralis.vctx[0]
    probe = address_probe_points(system.machine.config)
    report = CheckReport(task=task)
    start = time.perf_counter()
    for cfg, addr in pmp_configs:
        count = vctx.virtual_pmp_count
        vctx.pmpcfg = list(cfg[:count]) + [0] * (64 - count)
        vctx.pmpaddr = list(addr[:count]) + [0] * (64 - count)
        for world in (World.FIRMWARE, World.OS):
            miralis.vpmp.install(hart, vctx, world, miralis.policy)
            report.divergences.extend(
                check_pmp_configuration(miralis, hart, vctx, probe, world, task=task)
            )
            report.inputs_checked += 1
    report.elapsed_seconds = time.perf_counter() - start
    return report
