"""Seeded-bug switchboard for the verification regression suite.

§6.5 of the paper lists the bug classes model checking caught in Miralis:
virtual-PC overflow, acceptance of the reserved W=1/R=0 PMP combination,
an invalid legalization bitmask from a misplaced parenthesis, writes past
the virtual PMP count, and lost virtual interrupts.  Each can be
re-introduced here behind a flag so the test suite can assert that the
faithful-emulation/execution checkers *catch* them — i.e. that the
verification harness is not vacuous.
"""

from __future__ import annotations

import contextlib

#: Known seedable bugs (name -> description).
KNOWN_BUGS = {
    "vpc_overflow": "virtual mepc + 4 computed without 64-bit truncation",
    "pmp_w_without_r": "reserved W=1/R=0 PMP combination accepted",
    "legalization_parenthesis": "misplaced parenthesis in mstatus legalization mask",
    "vpmp_out_of_range": "pmpcfg writes accepted beyond the virtual PMP count",
    "interrupt_loss": "virtual interrupt check skipped after emulation",
    "mret_mpp_not_cleared": "mret does not reset MPP to U",
    "mpp_invalid_accepted": "MPP legalization accepts the reserved value 2",
    "os_ipi_write_dropped": "direct OS msip stores silently dropped by the "
                            "monitor's CLINT emulation",
    "unowned_msi_storm": "an OS-world MSI no world owns returns to the OS "
                         "with its line raised",
}

#: The enabled seeded bugs.  The monitor tests ``name in bugs.active``
#: directly (no call per trap); mutated in place only.
active: set[str] = set()


@contextlib.contextmanager
def seeded(*names: str):
    """Context manager enabling one or more seeded bugs."""
    for name in names:
        if name not in KNOWN_BUGS:
            raise ValueError(f"unknown seeded bug {name!r}")
    previous = set(active)
    active.update(names)
    try:
        yield
    finally:
        active.clear()
        active.update(previous)
