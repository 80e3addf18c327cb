"""Firmware framework.

:class:`BaseFirmware` implements the structure every M-mode firmware on
RISC-V shares: a boot path that configures delegation and drops to S-mode,
and a trap handler that multiplexes the CLINT timer, forwards IPIs,
emulates the ``time`` CSR and misaligned accesses on platforms lacking
them, and dispatches SBI calls from the OS.

Firmware code issues only architectural operations through its
:class:`~repro.hart.program.GuestContext` — it never touches simulator
internals — so the *same unmodified code* runs natively in M-mode or
deprivileged in vM-mode under Miralis.  That is the paper's central claim
(C1/C2) and the integration tests assert it by running each firmware both
ways and comparing behaviour.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.hart.program import GuestContext, GuestProgram, Region
from repro.isa import constants as c
from repro.isa.decoder import decode
from repro.isa.instructions import IllegalInstructionError
from repro.sbi import constants as sbi
from repro.sbi.types import SbiCall, SbiRet

if TYPE_CHECKING:
    from repro.hart.machine import Machine

# medeleg value: delegate to S-mode the exceptions the OS handles itself
# (breakpoints, environment calls from U, page faults).  Illegal
# instructions and misaligned accesses are NOT delegated: the firmware
# emulates them — the exact trap sources Figure 3 measures.
DEFAULT_MEDELEG = (
    (1 << c.TrapCause.BREAKPOINT)
    | (1 << c.TrapCause.ECALL_FROM_U)
    | (1 << c.TrapCause.INSTRUCTION_PAGE_FAULT)
    | (1 << c.TrapCause.LOAD_PAGE_FAULT)
    | (1 << c.TrapCause.STORE_PAGE_FAULT)
)

# mideleg: all supervisor-level interrupts are delegated, as §4.3 notes
# vendor firmware does (and Miralis hard-wires).
DEFAULT_MIDELEG = c.SIP_MASK

# a1 at the S-mode handoff: the device-tree address.  The modelled kernel
# reads no device tree, so it is 0.
DTB_ADDRESS = 0


class FirmwarePanic(Exception):
    """The firmware hit a state it cannot handle (bug or attack)."""


class BaseFirmware(GuestProgram):
    """Common structure of an SBI firmware.

    Subclasses tune the cost profile (trap prologue length), the SBI
    implementation ID, and may override individual SBI handlers —
    mirroring how OpenSBI derivatives share a core with vendor additions.
    """

    #: Modelled instruction counts for the assembly trap entry/exit code
    #: (GPR save/restore, trap-cause routing).  OpenSBI's generic entry is
    #: sizeable; leaner firmware overrides these.
    TRAP_PROLOGUE_INSTRUCTIONS = 90
    TRAP_EPILOGUE_INSTRUCTIONS = 70
    #: Modelled one-time platform initialization work.
    BOOT_INIT_INSTRUCTIONS = 20_000

    IMPL_ID = sbi.IMPL_ID_OPENSBI
    IMPL_VERSION = 0x10004
    BANNER = "base firmware"

    def __init__(
        self,
        name: str,
        region: Region,
        machine: "Machine",
        kernel_entry: Optional[int] = None,
    ):
        super().__init__(name, region)
        self.machine = machine
        self.kernel_entry = kernel_entry
        self.hsm_states = [sbi.HSM_STOPPED] * machine.config.num_harts
        self.sbi_counts: Counter[str] = Counter()
        self.unexpected_traps: list[int] = []
        self.detected_pmp_count = 0

    # -- checkpoint hooks ------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "hsm_states": list(self.hsm_states),
            "sbi_counts": Counter(self.sbi_counts),
            "unexpected_traps": list(self.unexpected_traps),
            "detected_pmp_count": self.detected_pmp_count,
        }

    def restore_state(self, state: dict) -> None:
        self.hsm_states[:] = state["hsm_states"]
        self.sbi_counts = Counter(state["sbi_counts"])
        self.unexpected_traps[:] = state["unexpected_traps"]
        self.detected_pmp_count = state["detected_pmp_count"]

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def boot(self, ctx: GuestContext) -> None:
        """Cold-boot path: init the platform, then drop into S-mode."""
        hartid = ctx.csrr(c.CSR_MHARTID)
        ctx.compute(self.BOOT_INIT_INSTRUCTIONS)
        self.console_write(ctx, f"{self.BANNER} (hart {hartid})\n")
        self.platform_init(ctx, hartid)
        ctx.csrw(c.CSR_MTVEC, self.trap_vector)
        ctx.csrw(c.CSR_MEDELEG, DEFAULT_MEDELEG)
        ctx.csrw(c.CSR_MIDELEG, DEFAULT_MIDELEG)
        # Expose the hardware counters to S/U-mode and, when the platform
        # implements Sstc, hand the supervisor its own timer compare —
        # exactly what OpenSBI's boot path does.
        ctx.csrw(c.CSR_MCOUNTEREN, 0b111)
        if self.machine.config.has_sstc:
            ctx.csrs(c.CSR_MENVCFG, c.MENVCFG_STCE)
        self.configure_pmp(ctx)
        # Enable M-level timer and software interrupts for multiplexing.
        ctx.csrw(c.CSR_MIE, c.MIP_MTIP | c.MIP_MSIP)
        # Park the timer until the OS arms it.
        self._write_mtimecmp(ctx, hartid, (1 << 64) - 1)
        if self.kernel_entry is None:
            self.machine.halt("firmware: no kernel to boot")
            return
        self.load_next_stage(ctx)
        self.hsm_states[hartid] = sbi.HSM_STARTED
        self.enter_supervisor(ctx, self.kernel_entry, hartid, DTB_ADDRESS)

    def platform_init(self, ctx: GuestContext, hartid: int) -> None:
        """Vendor-specific hardware bring-up (overridden by subclasses)."""

    def probe_pmp_count(self, ctx: GuestContext) -> int:
        """Discover how many PMP entries the platform implements.

        Writes each address register and reads it back, as OpenSBI's PMP
        driver does; registers beyond the implemented count are WARL
        read-zero.  On the virtual platform this transparently reports the
        *virtual* PMP count — no firmware modification needed (§4.2).
        """
        usable = 0
        for index in range(16):  # OpenSBI probes up to the common maximum
            ctx.csrw(c.pmpaddr_csr(index), c.PMP_ADDR_MASK)
            if ctx.csrr(c.pmpaddr_csr(index)) == 0:
                break
            ctx.csrw(c.pmpaddr_csr(index), 0)
            usable += 1
        return usable

    def configure_pmp(self, ctx: GuestContext) -> None:
        """Program the PMP the way OpenSBI does before entering S-mode.

        Entry 0 covers the firmware's own region with no S/U permissions
        (protecting firmware memory from the OS); the last implemented
        entry grants all remaining memory to S/U-mode.  Unlocked entries
        do not apply to M-mode, so the firmware keeps full access.
        """
        count = self.probe_pmp_count(ctx)
        self.detected_pmp_count = count
        if count == 0:
            return
        from repro.isa.bits import napot_encode

        firmware_guard = int(c.PmpAddressMode.NAPOT) << c.PMP_A_SHIFT
        all_memory = (
            c.PMP_R | c.PMP_W | c.PMP_X
            | (int(c.PmpAddressMode.NAPOT) << c.PMP_A_SHIFT)
        )
        if count == 1:
            # Degenerate platform: give S-mode all memory; the firmware
            # region stays unprotected (matches OpenSBI's fallback).
            ctx.csrw(c.pmpaddr_csr(0), c.PMP_ADDR_MASK)
            ctx.csrw(c.pmpcfg_csr(0), all_memory)
            return
        ctx.csrw(
            c.pmpaddr_csr(0), napot_encode(self.region.base, self.region.size)
        )
        last = count - 1
        ctx.csrw(c.pmpaddr_csr(last), c.PMP_ADDR_MASK)
        if last // 8 == 0:
            # Both entries share pmpcfg0: one combined write.
            ctx.csrw(
                c.pmpcfg_csr(0),
                firmware_guard | (all_memory << (8 * (last % 8))),
            )
        else:
            ctx.csrw(c.pmpcfg_csr(0), firmware_guard)
            ctx.csrw(c.pmpcfg_csr(last), all_memory << (8 * (last % 8)))

    def load_next_stage(self, ctx: GuestContext) -> None:
        """Copy the S-mode bootloader image into OS memory.

        This is the access §5.2 discusses: the sandbox policy allows
        firmware writes to OS memory only until the first switch to
        S-mode.
        """
        if self.kernel_entry is None:
            return
        # A small marker image, standing in for U-Boot + kernel payload.
        for offset, word in enumerate((0x6f5a_0001, 0x6f5a_0002, 0x6f5a_0003)):
            ctx.store(self.kernel_entry + 8 * offset + 0x40, word, size=8)

    def enter_supervisor(self, ctx: GuestContext, entry: int, hartid: int,
                         opaque: int) -> None:
        """mret into S-mode at ``entry`` with the standard a0/a1 protocol."""
        mstatus = ctx.csrr(c.CSR_MSTATUS)
        mstatus = (mstatus & ~c.MSTATUS_MPP) | (int(c.S_MODE) << c.MSTATUS_MPP_SHIFT)
        mstatus |= c.MSTATUS_MPIE
        ctx.csrw(c.CSR_MSTATUS, mstatus)
        ctx.csrw(c.CSR_MEPC, entry)
        ctx.set_reg(10, hartid)  # a0
        ctx.set_reg(11, opaque)  # a1
        ctx.mret()

    # ------------------------------------------------------------------
    # Trap handling
    # ------------------------------------------------------------------

    def handle_trap(self, ctx: GuestContext) -> None:
        ctx.compute(self.TRAP_PROLOGUE_INSTRUCTIONS)
        cause = ctx.csrr(c.CSR_MCAUSE)
        is_interrupt = bool(cause & c.INTERRUPT_BIT)
        code = cause & ~c.INTERRUPT_BIT
        if is_interrupt:
            self._handle_interrupt(ctx, code)
        else:
            self._handle_exception(ctx, code)
        ctx.compute(self.TRAP_EPILOGUE_INSTRUCTIONS)
        ctx.mret()

    def _handle_interrupt(self, ctx: GuestContext, code: int) -> None:
        self.machine.stats.annotate_last("firmware", detail=f"irq:{code}", hart=ctx.hart.hartid, injected=True)
        hartid = ctx.csrr(c.CSR_MHARTID)
        if code == c.IRQ_MTI:
            # Timer multiplexing: hand the timer to S-mode and park ours.
            self._write_mtimecmp(ctx, hartid, (1 << 64) - 1)
            ctx.csrs(c.CSR_MIP, c.MIP_STIP)
        elif code == c.IRQ_MSI:
            # IPI forwarding: ack the CLINT and raise SSIP for the OS.
            ctx.store(self.machine.clint.msip_address(hartid), 0, size=4)
            ctx.csrs(c.CSR_MIP, c.MIP_SSIP)
        else:
            self.unexpected_traps.append(code | c.INTERRUPT_BIT)

    def _handle_exception(self, ctx: GuestContext, code: int) -> None:
        if code == c.TrapCause.ECALL_FROM_S:
            self._handle_sbi_call(ctx)
            return
        if code == c.TrapCause.ILLEGAL_INSTRUCTION:
            if self._emulate_illegal(ctx):
                return
        if code in (
            c.TrapCause.LOAD_ADDRESS_MISALIGNED,
            c.TrapCause.STORE_ADDRESS_MISALIGNED,
        ):
            if self.emulate_misaligned(ctx, code):
                return
        self.unexpected_traps.append(code)
        self.machine.stats.annotate_last("firmware", detail=f"unhandled:{code}", hart=ctx.hart.hartid, injected=True)
        self.panic(ctx, f"unhandled exception {code}")

    def panic(self, ctx: GuestContext, message: str) -> None:
        self.console_write(ctx, f"{self.name}: PANIC: {message}\n")
        hook = self.machine.firmware_panic_hook
        if hook is not None:
            # The monitor's watchdog may recover the firmware instead of
            # letting the panic take the machine down; if it does, the
            # call does not return (FirmwareRecovered unwinds this frame).
            hook(ctx.hart, message)
        self.machine.halt(f"firmware panic: {message}")

    # -- SBI dispatch ----------------------------------------------------

    def _handle_sbi_call(self, ctx: GuestContext) -> None:
        frame = ctx.trap_frame  # the interrupted context's registers
        call = SbiCall.from_regs(
            ctx.hart.state.xregs if frame is None else frame)
        self.sbi_counts[call.name] += 1
        self.machine.stats.annotate_last("firmware", detail=f"sbi:{call.name}", hart=ctx.hart.hartid, injected=True)
        ret = self.dispatch_sbi(ctx, call)
        if call.eid in sbi.LEGACY_EXTENSIONS:
            # Legacy calls return only a0.
            error, _ = ret.to_u64()
            ctx.set_trap_reg(10, error)
        else:
            error, value = ret.to_u64()
            ctx.set_trap_reg(10, error)
            ctx.set_trap_reg(11, value)
        # Return past the ecall.
        ctx.csrw(c.CSR_MEPC, ctx.csrr(c.CSR_MEPC) + 4)

    def dispatch_sbi(self, ctx: GuestContext, call: SbiCall) -> SbiRet:
        eid, fid = call.eid, call.fid
        if eid == sbi.EXT_BASE:
            return self.sbi_base(ctx, call)
        if eid == sbi.EXT_TIMER and fid == sbi.FN_TIMER_SET_TIMER:
            return self.sbi_set_timer(ctx, call.arg(0))
        if eid == sbi.EXT_IPI and fid == sbi.FN_IPI_SEND_IPI:
            return self.sbi_send_ipi(ctx, call.arg(0), call.arg(1))
        if eid == sbi.EXT_RFENCE:
            return self.sbi_rfence(ctx, call)
        if eid == sbi.EXT_HSM:
            return self.sbi_hsm(ctx, call)
        if eid == sbi.EXT_SRST and fid == sbi.FN_SRST_SYSTEM_RESET:
            return self.sbi_system_reset(ctx, call.arg(0), call.arg(1))
        if eid == sbi.EXT_DBCN:
            return self.sbi_debug_console(ctx, call)
        if eid == sbi.LEGACY_SET_TIMER:
            return self.sbi_set_timer(ctx, call.arg(0))
        if eid == sbi.LEGACY_CONSOLE_PUTCHAR:
            self._putchar(ctx, call.arg(0) & 0xFF)
            return SbiRet.success()
        if eid == sbi.LEGACY_SEND_IPI:
            # Legacy mask lives in memory at the given virtual address;
            # modelled as a direct mask for the platforms we simulate.
            return self.sbi_send_ipi(ctx, call.arg(0), 0)
        if eid == sbi.LEGACY_SHUTDOWN:
            self.machine.halt("sbi legacy shutdown")
            return SbiRet.success()
        return SbiRet.failure(sbi.SbiError.ERR_NOT_SUPPORTED)

    # -- SBI base extension ---------------------------------------------

    _PROBEABLE = (
        sbi.EXT_BASE, sbi.EXT_TIMER, sbi.EXT_IPI, sbi.EXT_RFENCE,
        sbi.EXT_HSM, sbi.EXT_SRST, sbi.EXT_DBCN,
    )

    def sbi_base(self, ctx: GuestContext, call: SbiCall) -> SbiRet:
        fid = call.fid
        if fid == sbi.FN_BASE_GET_SPEC_VERSION:
            return SbiRet.success(sbi.SBI_SPEC_VERSION_2_0)
        if fid == sbi.FN_BASE_GET_IMPL_ID:
            return SbiRet.success(self.IMPL_ID)
        if fid == sbi.FN_BASE_GET_IMPL_VERSION:
            return SbiRet.success(self.IMPL_VERSION)
        if fid == sbi.FN_BASE_PROBE_EXTENSION:
            return SbiRet.success(int(call.arg(0) in self._PROBEABLE))
        if fid == sbi.FN_BASE_GET_MVENDORID:
            return SbiRet.success(ctx.csrr(c.CSR_MVENDORID))
        if fid == sbi.FN_BASE_GET_MARCHID:
            return SbiRet.success(ctx.csrr(c.CSR_MARCHID))
        if fid == sbi.FN_BASE_GET_MIMPID:
            return SbiRet.success(ctx.csrr(c.CSR_MIMPID))
        return SbiRet.failure(sbi.SbiError.ERR_NOT_SUPPORTED)

    # -- timer ------------------------------------------------------------

    def sbi_set_timer(self, ctx: GuestContext, deadline: int) -> SbiRet:
        hartid = ctx.csrr(c.CSR_MHARTID)
        self._write_mtimecmp(ctx, hartid, deadline)
        ctx.csrc(c.CSR_MIP, c.MIP_STIP)
        ctx.csrs(c.CSR_MIE, c.MIP_MTIP)
        return SbiRet.success()

    def _write_mtimecmp(self, ctx: GuestContext, hartid: int, value: int) -> None:
        ctx.store(self.machine.clint.mtimecmp_address(hartid), value, size=8)

    # -- IPI ------------------------------------------------------------

    def sbi_send_ipi(self, ctx: GuestContext, hart_mask: int, mask_base: int) -> SbiRet:
        num_harts = self.machine.config.num_harts
        if mask_base == (1 << 64) - 1:
            targets = range(num_harts)
        else:
            targets = [
                mask_base + i for i in range(64) if hart_mask >> i & 1
            ]
        for target in targets:
            if not 0 <= target < num_harts:
                return SbiRet.failure(sbi.SbiError.ERR_INVALID_PARAM)
            ctx.store(self.machine.clint.msip_address(target), 1, size=4)
        return SbiRet.success()

    # -- remote fences -----------------------------------------------------

    def sbi_rfence(self, ctx: GuestContext, call: SbiCall) -> SbiRet:
        if call.fid not in (
            sbi.FN_RFENCE_FENCE_I,
            sbi.FN_RFENCE_SFENCE_VMA,
            sbi.FN_RFENCE_SFENCE_VMA_ASID,
        ):
            return SbiRet.failure(sbi.SbiError.ERR_NOT_SUPPORTED)
        # Execute the fence locally, then IPI the remote harts, which run
        # their fence in the IPI handler (modelled by the delivery cost).
        if call.fid == sbi.FN_RFENCE_FENCE_I:
            ctx.fence_i()
        else:
            ctx.sfence_vma()
        return self.sbi_send_ipi(ctx, call.arg(0), call.arg(1))

    # -- HSM ------------------------------------------------------------

    def sbi_hsm(self, ctx: GuestContext, call: SbiCall) -> SbiRet:
        fid = call.fid
        if fid == sbi.FN_HSM_HART_GET_STATUS:
            hartid = call.arg(0)
            if not 0 <= hartid < len(self.hsm_states):
                return SbiRet.failure(sbi.SbiError.ERR_INVALID_PARAM)
            return SbiRet.success(self.hsm_states[hartid])
        if fid == sbi.FN_HSM_HART_START:
            return self.sbi_hart_start(ctx, call.arg(0), call.arg(1), call.arg(2))
        if fid == sbi.FN_HSM_HART_STOP:
            hartid = ctx.csrr(c.CSR_MHARTID)
            self.hsm_states[hartid] = sbi.HSM_STOPPED
            return SbiRet.success()
        return SbiRet.failure(sbi.SbiError.ERR_NOT_SUPPORTED)

    def sbi_hart_start(self, ctx: GuestContext, hartid: int, start_addr: int,
                       opaque: int) -> SbiRet:
        if not 0 <= hartid < self.machine.config.num_harts:
            return SbiRet.failure(sbi.SbiError.ERR_INVALID_PARAM)
        if self.hsm_states[hartid] == sbi.HSM_STARTED:
            return SbiRet.failure(sbi.SbiError.ERR_ALREADY_AVAILABLE)
        target = self.machine.harts[hartid]
        if self.machine.hart_start_hook is not None:
            # Virtualized deployment: the monitor owns M-mode on every
            # hart and performs the world setup for the started hart.
            self.machine.hart_start_hook(hartid, start_addr, opaque)
        else:
            target.state.pc = start_addr
            target.state.mode = c.S_MODE
            target.state.set_xreg(10, hartid)
            target.state.set_xreg(11, opaque)
            # Inherit delegation configured on the boot hart.
            target.state.csr.medeleg = ctx.hart.state.csr.medeleg
            target.state.csr.mideleg = ctx.hart.state.csr.mideleg
            target.state.csr.mtvec = ctx.hart.state.csr.mtvec
            target.state.csr.mie = c.MIP_MTIP | c.MIP_MSIP
        self.hsm_states[hartid] = sbi.HSM_STARTED
        self.machine.run_hart_until_parked(target)
        return SbiRet.success()

    # -- reset / console ----------------------------------------------------

    def sbi_system_reset(self, ctx: GuestContext, reset_type: int,
                         reason: int) -> SbiRet:
        self.machine.halt(f"sbi system reset (type={reset_type}, reason={reason})")
        return SbiRet.success()

    def sbi_debug_console(self, ctx: GuestContext, call: SbiCall) -> SbiRet:
        if call.fid == sbi.FN_DBCN_CONSOLE_WRITE_BYTE:
            self._putchar(ctx, call.arg(0) & 0xFF)
            return SbiRet.success(1)
        if call.fid == sbi.FN_DBCN_CONSOLE_WRITE:
            # Reads the OS-provided buffer: this is the shared-memory
            # console §5.2 calls out as a sandbox-policy interaction.
            count = min(call.arg(0), 4096)
            base = call.arg(1)
            for i in range(count):
                self._putchar(ctx, ctx.load(base + i, size=1))
            return SbiRet.success(count)
        return SbiRet.failure(sbi.SbiError.ERR_NOT_SUPPORTED)

    def _putchar(self, ctx: GuestContext, byte: int) -> None:
        ctx.store(self.machine.uart.base, byte, size=1)

    def console_write(self, ctx: GuestContext, text: str) -> None:
        for byte in text.encode():
            self._putchar(ctx, byte)

    # ------------------------------------------------------------------
    # Emulation of unimplemented hardware (the Figure 3 trap sources)
    # ------------------------------------------------------------------

    def _trapped_instruction(self, ctx: GuestContext, from_memory: bool = False):
        """Decode the instruction that trapped.

        Illegal-instruction traps carry the instruction bits in ``mtval``;
        misaligned traps carry the faulting *address*, so the handler must
        fetch the instruction word from memory at ``mepc`` — exactly what
        real firmware does.
        """
        if not from_memory:
            tval = ctx.csrr(c.CSR_MTVAL)
            if tval:
                try:
                    return decode(tval)
                except IllegalInstructionError:
                    return None
        word = ctx.load(ctx.csrr(c.CSR_MEPC), size=4)
        try:
            return decode(word)
        except IllegalInstructionError:
            return None

    def _emulate_illegal(self, ctx: GuestContext) -> bool:
        """Emulate ``time`` CSR reads (the hottest trap on the VisionFive 2).

        Only the read-only forms (``rdtime`` = ``csrrs rd, time, x0``) are
        emulable; a genuine *write* to the time CSR is illegal everywhere
        and is not swallowed.
        """
        instr = self._trapped_instruction(ctx)
        if instr is None or not instr.is_csr_op or instr.csr != c.CSR_TIME:
            return False
        if instr.mnemonic not in ("csrrs", "csrrc") or instr.rs1 != 0:
            return False
        self.machine.stats.annotate_last("firmware", detail="emulate:time-read", hart=ctx.hart.hartid, injected=True)
        mtime = ctx.load(self.machine.clint.mtime_address, size=8)
        ctx.set_trap_reg(instr.rd, mtime)
        ctx.csrw(c.CSR_MEPC, ctx.csrr(c.CSR_MEPC) + 4)
        return True

    def emulate_misaligned(self, ctx: GuestContext, code: int) -> bool:
        """Byte-wise emulation of misaligned loads and stores."""
        instr = self._trapped_instruction(ctx, from_memory=True)
        address = ctx.csrr(c.CSR_MTVAL)
        if instr is None or not (instr.is_load or instr.is_store):
            return False
        self.machine.stats.annotate_last("firmware", detail="emulate:misaligned", hart=ctx.hart.hartid, injected=True)
        size = instr.memory_size
        if instr.is_load:
            value = 0
            for i in range(size):
                value |= ctx.load(address + i, size=1) << (8 * i)
            if instr.mnemonic in ("lb", "lh", "lw"):
                sign_bit = 1 << (8 * size - 1)
                if value & sign_bit:
                    value |= ((1 << 64) - 1) & ~((1 << (8 * size)) - 1)
            ctx.set_trap_reg(instr.rd, value)
        else:
            value = ctx.trap_reg(instr.rs2)
            for i in range(size):
                ctx.store(address + i, (value >> (8 * i)) & 0xFF, size=1)
        ctx.csrw(c.CSR_MEPC, ctx.csrr(c.CSR_MEPC) + 4)
        return True
