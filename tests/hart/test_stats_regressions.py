"""Regression tests for TrapStats accounting (Figure 3 data quality)."""

from repro.hart.stats import TrapStats
from repro.policy import FirmwareSandboxPolicy
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized


def _record(stats, mtime):
    return stats.record_trap(
        hart=0, cause=5, is_interrupt=True, from_mode=None, mtime=mtime
    )


class TestAnnotateLast:
    def test_annotate_without_trap_is_a_noop(self):
        stats = TrapStats()
        stats.annotate_last("firmware")
        assert sum(stats.handler_counts.values()) == 0
        assert stats.total_traps == 0

    def test_reannotation_counts_each_trap_once(self):
        """A trap reclassified by a later handler (interrupt forwarded into
        a world switch) must count once, under its final handler."""
        stats = TrapStats()
        _record(stats, 10)
        stats.annotate_last("miralis")
        stats.annotate_last("miralis-worldswitch")
        assert sum(stats.handler_counts.values()) == 1
        assert stats.handler_counts["miralis-worldswitch"] == 1

    def test_invariant_through_sandbox_boot(self):
        def workload(kernel, ctx):
            kernel.read_time(ctx)
            ctx.compute(5_000)
            kernel.sbi_send_ipi(ctx, 0b1, 0)
            kernel.print(ctx, "done\n")

        system = build_virtualized(
            VISIONFIVE2,
            workload=workload,
            policy=FirmwareSandboxPolicy(
                extra_allowed_regions=[(VISIONFIVE2.uart_base, 0x100)]
            ),
        )
        system.run()
        stats = system.machine.stats
        assert stats.total_traps > 0
        assert sum(stats.handler_counts.values()) <= stats.total_traps
