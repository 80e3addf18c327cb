"""Dispatch-engine edge cases: resume unwinding, parked harts, VirtContext."""

import pytest

from repro.hart.machine import Machine, _UnwindToResume
from repro.hart.program import GuestContext, GuestProgram, Region
from repro.isa import constants as c
from repro.spec.platform import VISIONFIVE2


class TestResumeUnwinding:
    def test_unwind_reaches_outer_resume_point(self):
        """A handler redirecting control to an *outer* continuation unwinds
        the inner dispatch levels (the TEE context-switch mechanism)."""
        machine = Machine(VISIONFIVE2)
        hart = machine.harts[0]
        trace = []

        class Outer(GuestProgram):
            def __init__(self):
                super().__init__("outer", Region("outer", 0x8000_0000, 0x1000))
                self.resumable = False

            def boot(self, ctx):
                trace.append("outer-start")
                # Simulate: issue an operation whose handler eventually
                # context-switches back past it.
                resume = ctx.hart.state.pc + 4
                ctx.hart.state.pc = inner.region.base  # control moves away
                machine.run_until(ctx.hart, {resume})
                trace.append("outer-resumed")
                machine.halt("done")

            def handle_trap(self, ctx):
                raise AssertionError

        class Inner(GuestProgram):
            def __init__(self):
                super().__init__("inner", Region("inner", 0x8001_0000, 0x1000))

            def boot(self, ctx):
                trace.append("inner")
                # Nested wait that can never complete locally; the
                # "monitor" (here: us) redirects to the outer resume point.
                ctx.hart.state.pc = 0x8000_0004
                machine.run_until(ctx.hart, {self.region.base + 0x500})
                trace.append("inner-after (must not happen)")

            def handle_trap(self, ctx):
                raise AssertionError

        inner = Inner()
        outer = Outer()
        machine.register(outer)
        machine.register(inner)
        hart.state.pc = outer.entry_point
        machine.boot(entry=outer.entry_point)
        assert trace == ["outer-start", "inner", "outer-resumed"]

    def test_unwind_exception_repr(self):
        exc = _UnwindToResume(0x1234)
        assert "0x1234" in str(exc)


class TestParkedHarts:
    def test_park_and_ipi_service(self):
        from repro.system import build_native

        seen = {}

        def workload(kernel, ctx):
            hart1 = kernel.machine.harts[1]
            seen["parked_before"] = hart1.parked_pc
            kernel.sbi_send_ipi(ctx, 0b10, 0)
            # After servicing, the remote hart is parked again.
            seen["parked_after"] = hart1.parked_pc

        system = build_native(VISIONFIVE2, workload=workload,
                              start_secondaries=True)
        system.run()
        assert seen["parked_before"] is not None
        assert seen["parked_after"] == seen["parked_before"]

    def test_unparked_hart_not_serviced(self):
        machine = Machine(VISIONFIVE2)
        # No programs registered for hart 1; raising its MSIP line must not
        # attempt a dispatch (parked_pc is None).
        machine.clint.write(4, 4, 1)  # msip[1] = 1
        assert machine.harts[1].state.csr.mip & c.MIP_MSIP


class TestVirtContextState:
    def test_snapshot_roundtrip_all_fields(self):
        from repro.core.csr_emul import write_csr
        from repro.core.vcpu import VirtContext

        vctx = VirtContext(VISIONFIVE2)
        write_csr(vctx, c.CSR_MSCRATCH, 0x42)
        write_csr(vctx, c.CSR_MTVEC, 0x8000_0100)
        write_csr(vctx, c.CSR_PMPADDR0, 0x999)
        vctx.virtual_mode = c.S_MODE
        snapshot = vctx.snapshot_state()
        write_csr(vctx, c.CSR_MSCRATCH, 0)
        vctx.virtual_mode = c.M_MODE
        vctx.restore_state(snapshot)
        assert vctx.mscratch == 0x42
        assert vctx.mtvec == 0x8000_0100
        assert vctx.pmpaddr[0] == 0x999
        assert vctx.virtual_mode == c.S_MODE

    def test_views_follow_hardwired_mideleg(self):
        from repro.core.vcpu import VirtContext

        vctx = VirtContext(VISIONFIVE2)
        vctx.mie = c.MIP_MASK
        vctx.mip = c.MIP_MASK
        assert vctx.sie == c.SIP_MASK
        assert vctx.sip == c.SIP_MASK

    def test_repr(self):
        from repro.core.vcpu import VirtContext

        assert "vmode=M" in repr(VirtContext(VISIONFIVE2))


class TestRegionHelpers:
    def test_str(self):
        region = Region("r", 0x1000, 0x100)
        assert "r[0x1000..0x1100)" == str(region)

    def test_guest_program_vectors(self):
        class P(GuestProgram):
            def boot(self, ctx):
                pass

            def handle_trap(self, ctx):
                pass

        program = P("p", Region("p", 0x8000_0000, 0x10000))
        assert program.entry_point == 0x8000_0000
        assert program.trap_vector == 0x8000_0100

    def test_resume_unsupported_by_default(self):
        class P(GuestProgram):
            def boot(self, ctx):
                pass

            def handle_trap(self, ctx):
                pass

        program = P("p", Region("p", 0x8000_0000, 0x10000))
        with pytest.raises(NotImplementedError):
            program.resume(None)
