"""S-mode kernel model.

A Linux-like supervisor kernel reduced to the behaviours that interact
with M-mode — which, per §3.4, is all that matters for VFM performance:
SBI calls (timer, IPI, remote fence, console), ``time`` CSR reads,
misaligned accesses, and interrupt handling.  Workload generators
(:mod:`repro.os_model.workloads`) drive these at the rates measured in the
paper.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from repro.hart.program import GuestContext, GuestProgram, Region
from repro.isa import constants as c
from repro.sbi import constants as sbi

#: A workload is a callable driving the kernel after boot.
Workload = Callable[["KernelProgram", GuestContext], None]

SECONDARY_ENTRY_OFFSET = 0x40

#: Scheduler tick period: 1 ms at the 4 MHz timebase.
TICK_INTERVAL_MTIME = 4_000


class KernelProgram(GuestProgram):
    """The supervisor OS: boots, starts secondary harts, runs a workload."""

    def __init__(
        self,
        name: str,
        region: Region,
        machine,
        workload: Optional[Workload] = None,
        start_secondaries: bool = False,
        secondary_workload: Optional[Workload] = None,
    ):
        super().__init__(name, region)
        self.machine = machine
        self.workload = workload
        self.start_secondaries = start_secondaries
        #: Run on each secondary hart after its idle-loop setup, before it
        #: parks — only meaningful under the SMP scheduler, where the
        #: secondary executes interleaved with its siblings.
        self.secondary_workload = secondary_workload
        self.timer_ticks = 0
        self.software_interrupts = 0
        self.external_interrupts = 0
        #: Per-hart views of the interrupt counters (SMP workloads assert
        #: that *each* hart made progress, not just the aggregate).
        self.ticks_by_hart: Counter[int] = Counter()
        self.ssi_by_hart: Counter[int] = Counter()
        #: When set, a hart servicing an IPI answers with an IPI back to
        #: this hart (unless it *is* this hart) — the ping-pong workload.
        self.ipi_pong_target: Optional[int] = None
        self.unexpected_traps: list[int] = []
        self.sbi_impl_id: Optional[int] = None
        self.extensions: dict[int, bool] = {}
        self.booted_harts: list[int] = []
        self.add_entry(self.secondary_entry, self._secondary_main)

    @property
    def secondary_entry(self) -> int:
        return self.region.base + SECONDARY_ENTRY_OFFSET

    # -- checkpoint hooks ------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "timer_ticks": self.timer_ticks,
            "software_interrupts": self.software_interrupts,
            "external_interrupts": self.external_interrupts,
            "ticks_by_hart": Counter(self.ticks_by_hart),
            "ssi_by_hart": Counter(self.ssi_by_hart),
            "ipi_pong_target": self.ipi_pong_target,
            "unexpected_traps": list(self.unexpected_traps),
            "sbi_impl_id": self.sbi_impl_id,
            "extensions": dict(self.extensions),
            "booted_harts": list(self.booted_harts),
        }

    def restore_state(self, state: dict) -> None:
        self.timer_ticks = state["timer_ticks"]
        self.software_interrupts = state["software_interrupts"]
        self.external_interrupts = state["external_interrupts"]
        self.ticks_by_hart = Counter(state["ticks_by_hart"])
        self.ssi_by_hart = Counter(state["ssi_by_hart"])
        self.ipi_pong_target = state["ipi_pong_target"]
        self.unexpected_traps[:] = state["unexpected_traps"]
        self.sbi_impl_id = state["sbi_impl_id"]
        self.extensions = dict(state["extensions"])
        self.booted_harts[:] = state["booted_harts"]

    # -- SBI wrappers -----------------------------------------------------

    def sbi_call(self, ctx: GuestContext, eid: int, fid: int, *args: int):
        return ctx.ecall(*args, a6=fid, a7=eid)

    def sbi_set_timer(self, ctx: GuestContext, deadline: int) -> None:
        if self.machine.config.has_sstc and self._stce_enabled(ctx):
            # With Sstc the kernel programs the deadline directly — no
            # firmware involvement (the §8.3.3 ablation path).
            ctx.csrw(c.CSR_STIMECMP, deadline)
            return
        self.sbi_call(ctx, sbi.EXT_TIMER, sbi.FN_TIMER_SET_TIMER, deadline)

    def _stce_enabled(self, ctx: GuestContext) -> bool:
        # menvcfg is M-mode state; the kernel discovers Sstc through the
        # ISA string on real systems.  Model: try once and remember.
        return self.machine.config.has_sstc

    def sbi_send_ipi(self, ctx: GuestContext, hart_mask: int, base: int = 0):
        return self.sbi_call(ctx, sbi.EXT_IPI, sbi.FN_IPI_SEND_IPI, hart_mask, base)

    def sbi_remote_fence_i(self, ctx: GuestContext, hart_mask: int, base: int = 0):
        return self.sbi_call(ctx, sbi.EXT_RFENCE, sbi.FN_RFENCE_FENCE_I, hart_mask, base)

    def sbi_putchar(self, ctx: GuestContext, char: int):
        return self.sbi_call(ctx, sbi.LEGACY_CONSOLE_PUTCHAR, 0, char)

    def print(self, ctx: GuestContext, text: str) -> None:
        for byte in text.encode():
            self.sbi_putchar(ctx, byte)

    def read_time(self, ctx: GuestContext) -> int:
        """Read the ``time`` CSR — the hottest trap source on the VF2."""
        return ctx.csrr(c.CSR_TIME)

    # -- boot ------------------------------------------------------------

    def boot(self, ctx: GuestContext) -> None:
        ctx.csrw(c.CSR_STVEC, self.trap_vector)
        hartid = ctx.get_reg(10)  # a0 per boot protocol
        self.booted_harts.append(hartid)
        # Probe the SBI implementation.
        _err, impl = self.sbi_call(ctx, sbi.EXT_BASE, sbi.FN_BASE_GET_IMPL_ID)
        self.sbi_impl_id = impl
        for extension in (sbi.EXT_TIMER, sbi.EXT_IPI, sbi.EXT_RFENCE, sbi.EXT_HSM):
            _err, present = self.sbi_call(
                ctx, sbi.EXT_BASE, sbi.FN_BASE_PROBE_EXTENSION, extension
            )
            self.extensions[extension] = bool(present)
        # Enable supervisor interrupts.
        ctx.csrw(c.CSR_SIE, c.MIP_SSIP | c.MIP_STIP | c.MIP_SEIP)
        ctx.csrs(c.CSR_SSTATUS, c.MSTATUS_SIE)
        if self.start_secondaries and self.extensions.get(sbi.EXT_HSM):
            self._start_secondary_harts(ctx)
        # Arm the scheduler tick.
        now = self.read_time(ctx)
        self.sbi_set_timer(ctx, now + TICK_INTERVAL_MTIME)
        if self.workload is not None:
            self.workload(self, ctx)
        self.shutdown(ctx)

    def shutdown(self, ctx: GuestContext) -> None:
        self.sbi_call(ctx, sbi.EXT_SRST, sbi.FN_SRST_SYSTEM_RESET, 0, 0)

    def _start_secondary_harts(self, ctx: GuestContext) -> None:
        for hartid in range(1, self.machine.config.num_harts):
            error, _ = self.sbi_call(
                ctx, sbi.EXT_HSM, sbi.FN_HSM_HART_START,
                hartid, self.secondary_entry, hartid,
            )
            if error == 0:
                self.booted_harts.append(hartid)

    def _secondary_main(self, ctx: GuestContext) -> None:
        """Secondary-hart idle loop: configure, then park awaiting IPIs."""
        ctx.csrw(c.CSR_STVEC, self.trap_vector)
        ctx.csrw(c.CSR_SIE, c.MIP_SSIP | c.MIP_STIP)
        ctx.csrs(c.CSR_SSTATUS, c.MSTATUS_SIE)
        if self.secondary_workload is not None:
            self.secondary_workload(self, ctx)
        self.machine.park(ctx.hart)

    # -- trap handling ---------------------------------------------------

    def handle_trap(self, ctx: GuestContext) -> None:
        ctx.compute(40)  # kernel trap entry (register save, routing)
        cause = ctx.csrr(c.CSR_SCAUSE)
        code = cause & ~c.INTERRUPT_BIT
        if cause & c.INTERRUPT_BIT:
            if code == c.IRQ_STI:
                self.timer_ticks += 1
                self.ticks_by_hart[ctx.hart.hartid] += 1
                # Re-arm: mask further timer interrupts until the workload
                # arms a new deadline (Linux's oneshot clockevent model).
                ctx.csrc(c.CSR_SIE, c.MIP_STIP)
            elif code == c.IRQ_SSI:
                self.software_interrupts += 1
                self.ssi_by_hart[ctx.hart.hartid] += 1
                ctx.csrc(c.CSR_SIP, c.MIP_SSIP)
                pong = self.ipi_pong_target
                if pong is not None and ctx.hart.hartid != pong:
                    self.sbi_send_ipi(ctx, 1 << pong, 0)
            elif code == c.IRQ_SEI:
                self.external_interrupts += 1
                self._claim_external(ctx)
            else:
                self.unexpected_traps.append(cause)
        else:
            self.unexpected_traps.append(cause)
            self.machine.halt(f"kernel: unexpected exception {code}")
            return
        ctx.compute(30)  # kernel trap exit
        ctx.sret()

    def _claim_external(self, ctx: GuestContext) -> None:
        plic = self.machine.plic
        claim_address = plic.base + 0x200000 + 0x1000 * ctx.hart.hartid + 4
        source = ctx.load(claim_address, size=4)
        if source:
            ctx.store(claim_address, source, size=4)  # complete

    # -- re-arming helper used by workloads ---------------------------------

    def arm_timer_tick(self, ctx: GuestContext) -> None:
        now = self.read_time(ctx)
        ctx.csrs(c.CSR_SIE, c.MIP_STIP)
        self.sbi_set_timer(ctx, now + TICK_INTERVAL_MTIME)
