"""§6.5 regression suite: the checkers catch every historical bug class.

Each bug the paper reports finding with model checking is re-introduced
behind a flag (:mod:`repro.core.bugs`); the corresponding checker must
flag a divergence — proving the verification harness is not vacuous.
"""

import pytest

from repro.core import bugs
from repro.isa import constants as c
from repro.isa.instructions import Instruction
from repro.spec.platform import VISIONFIVE2
from repro.verif import (
    StateDescription,
    mstatus_space,
    run_emulation_check,
    virtual_platform,
)

PLATFORM = virtual_platform(VISIONFIVE2, virtual_pmp_count=4)


def mstatus_write_sweep(task):
    # Field-product values plus raw boundary patterns with bits *outside*
    # the writable mask — those are what a broken legalization mask leaks.
    operands = list(mstatus_space())[:64] + [
        (1 << 64) - 1, 1 << 63, 1 << 40, 0xAAAA_AAAA_AAAA_AAAA,
    ]
    descriptions = [
        StateDescription(gprs=[0] + [operand] * 31)
        for operand in operands
    ]
    return run_emulation_check(
        PLATFORM, descriptions,
        [Instruction("csrrw", rd=1, rs1=2, csr=c.CSR_MSTATUS)],
        task=task,
    )


class TestBugsAreCaught:
    def test_vpc_overflow(self):
        """'a virtual PC overflow' — mepc+4 computed without truncation."""
        descriptions = [StateDescription(pc=0xFFFF_FFFF_FFFF_FFFC)]
        instructions = [Instruction("csrrs", rd=1, rs1=0, csr=c.CSR_MSCRATCH)]
        with bugs.seeded("vpc_overflow"):
            report = run_emulation_check(PLATFORM, descriptions, instructions,
                                         task="vpc")
        assert not report.passed
        assert any(d.field == "pc" for d in report.divergences)

    def test_pmp_w_without_r_accepted(self):
        """'accepting the reserved combination of W=1 and R=0'."""
        descriptions = [StateDescription(gprs=[0] + [0x1A] * 31)]
        instructions = [Instruction("csrrw", rd=1, rs1=2, csr=c.CSR_PMPCFG0)]
        with bugs.seeded("pmp_w_without_r"):
            report = run_emulation_check(PLATFORM, descriptions, instructions,
                                         task="pmp-wr")
        assert not report.passed

    def test_legalization_parenthesis(self):
        """'an invalid legalization bitmask due to a misplaced parenthesis'."""
        with bugs.seeded("legalization_parenthesis"):
            report = mstatus_write_sweep("paren")
        assert not report.passed

    def test_vpmp_out_of_range(self):
        """'overwrite the PMP configuration beyond the allowed number of
        virtual PMPs'."""
        descriptions = [StateDescription(gprs=[0] + [0x1F1F1F1F1F1F1F1F] * 31)]
        instructions = [Instruction("csrrw", rd=1, rs1=2, csr=c.CSR_PMPCFG0)]
        with bugs.seeded("vpmp_out_of_range"):
            report = run_emulation_check(PLATFORM, descriptions, instructions,
                                         task="vpmp-range")
        assert not report.passed
        assert any(d.field == "pmpcfg" for d in report.divergences)

    def test_mret_mpp_not_cleared(self):
        """'flawed mret emulation'."""
        descriptions = [
            StateDescription(csr_values={"mstatus": (1 << 11) | c.MSTATUS_MPIE,
                                         "mepc": 0x8400_0000})
        ]
        with bugs.seeded("mret_mpp_not_cleared"):
            report = run_emulation_check(
                PLATFORM, descriptions, [Instruction("mret")], task="mret-mpp"
            )
        assert not report.passed
        assert any(d.field == "mstatus" for d in report.divergences)

    def test_mpp_invalid_accepted(self):
        """'a long tail of edge cases in CSRs bit patterns'."""
        descriptions = [StateDescription(gprs=[0] + [2 << 11] * 31)]
        instructions = [Instruction("csrrw", rd=1, rs1=2, csr=c.CSR_MSTATUS)]
        with bugs.seeded("mpp_invalid_accepted"):
            report = run_emulation_check(PLATFORM, descriptions, instructions,
                                         task="mpp")
        assert not report.passed

    def test_interrupt_loss_system_level(self):
        """'losses of virtual interrupts can cause system stalls' — with
        the post-emulation interrupt check skipped, the pending-but-never-
        injected timer interrupt storms the monitor and the RTOS guest
        makes no progress; the dispatch watchdog detects the livelock."""
        from repro.firmware.zephyr import ZephyrFirmware
        from repro.hart.machine import Machine
        from repro.hart.program import ProtocolError
        from repro.core.config import MiralisConfig
        from repro.core.miralis import Miralis
        from repro.policy.default import DefaultPolicy
        from repro.system import memory_regions

        def run_zephyr():
            machine = Machine(VISIONFIVE2)
            machine.max_dispatches = 100_000  # livelock watchdog
            regions = memory_regions(VISIONFIVE2)
            zephyr = ZephyrFirmware("zephyr", regions["firmware"], machine,
                                    num_ticks=3)
            miralis = Miralis(machine, regions["miralis"], zephyr,
                              MiralisConfig(), DefaultPolicy())
            machine.register(zephyr)
            machine.register(miralis)
            try:
                reason = machine.boot(entry=miralis.region.base)
            except ProtocolError:
                reason = "livelock: dispatch limit exceeded"
            return reason, zephyr

        with bugs.seeded("interrupt_loss"):
            reason, zephyr = run_zephyr()
        assert not zephyr.suite_passed() or "complete" not in reason

        # Control: without the bug, the suite passes.
        reason, zephyr = run_zephyr()
        assert zephyr.suite_passed() and "complete" in reason


    def test_unowned_msi_storm(self):
        """The runaway of chaos seed 119: an MSI no world owns (virtual
        msip clear, fast path off) arrives while the OS runs.  Routed
        back to the OS with the line raised and MSIE on, it re-traps
        forever; the routing check must name that state."""
        from repro.verif.routing import run_routing_check

        with bugs.seeded("unowned_msi_storm"):
            report = run_routing_check(task="routing")
        assert not report.passed
        seed_119 = [d for d in report.divergences if d.context.startswith(
            "world=os irq=3 msip=0 MIE=0 mie=0x8 ")]
        assert seed_119
        for divergence in seed_119:
            assert "offload=0 quarantined=0" in divergence.context
            assert divergence.actual.startswith("return-os")


class TestCleanImplementationPasses:
    """The same sweeps pass with no bug seeded (non-vacuity control)."""

    def test_mstatus_sweep_clean(self):
        report = mstatus_write_sweep("clean")
        assert report.passed, report.first_failures()

    def test_known_bug_registry_documented(self):
        assert set(bugs.KNOWN_BUGS) >= {
            "vpc_overflow", "pmp_w_without_r", "legalization_parenthesis",
            "vpmp_out_of_range", "interrupt_loss", "mret_mpp_not_cleared",
        }

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError):
            with bugs.seeded("not_a_bug"):
                pass

    def test_seeding_is_scoped(self):
        with bugs.seeded("vpc_overflow"):
            assert "vpc_overflow" in bugs.active
        assert "vpc_overflow" not in bugs.active
