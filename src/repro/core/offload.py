"""Fast-path offloading (§3.4).

Five trap causes account for 99.98% of OS-to-firmware traps on the
VisionFive 2 — reading ``time``, programming the timer, IPIs, remote
fences, and misaligned accesses.  All five are generic emulation of
optional RISC-V features, so Miralis handles them itself (10-100 lines
each in the paper) and bypasses the virtualized firmware entirely,
reducing world switches from 5 500/s to ~1.17/s during boot.
"""

from __future__ import annotations

from collections import Counter

from repro.core.interrupts import ACK_DROP
from repro.core.vcpu import VirtContext
from repro.hart.stats import trap_detail
from repro.isa import constants as c
from repro.isa.decoder import decode
from repro.isa.instructions import IllegalInstructionError
from repro.sbi import constants as sbi
from repro.sbi.types import SbiCall, SbiRet
from repro.spec.step import BusError

U64 = (1 << 64) - 1

# Trap causes tested on every OS exception, bound once: reading an enum
# member through its class is a slow attribute lookup.
_ILLEGAL_INSTRUCTION = c.TrapCause.ILLEGAL_INSTRUCTION
_ECALL_FROM_S = c.TrapCause.ECALL_FROM_S
_MISALIGNED = (
    c.TrapCause.LOAD_ADDRESS_MISALIGNED,
    c.TrapCause.STORE_ADDRESS_MISALIGNED,
)


def emulate_misaligned(machine, hart, address: int) -> int:
    """Perform the load or store at ``mepc`` byte by byte at ``address``.

    Returns the access size, or 0 when ``mepc`` holds no load or store;
    decode and device errors propagate to the caller.
    """
    instr = decode(machine.ram.read(hart.state.csr.mepc, 4))
    if not (instr.is_load or instr.is_store):
        return 0
    size = instr.memory_size
    bus = machine.spec_bus
    if instr.is_load:
        value = 0
        for i in range(size):
            value |= bus.read(address + i, 1) << (8 * i)
        hart.state.set_xreg(instr.rd, instr.extend_loaded(value))
    else:
        value = hart.state.get_xreg(instr.rs2)
        for i in range(size):
            bus.write(address + i, 1, (value >> (8 * i)) & 0xFF)
    return size


class FastPath:
    """The offload engine: handles the five hot trap classes in-monitor."""

    def __init__(self, miralis):
        self.miralis = miralis
        self.machine = miralis.machine
        self.costs = miralis.config.costs
        self.hits: Counter[str] = Counter()
        #: Whether the monitor armed the timer on behalf of the OS; the
        #: vCLINT retires it when a comparator store clobbers the deadline.
        self.timer_armed = miralis.vclint.timer_armed

    def snapshot_state(self) -> dict:
        return {"hits": Counter(self.hits),
                "timer_armed": list(self.timer_armed)}

    def restore_state(self, state: dict) -> None:
        self.hits = Counter(state["hits"])
        self.timer_armed[:] = state["timer_armed"]

    # ------------------------------------------------------------------
    # Shared accounting
    # ------------------------------------------------------------------

    def _note(self, hart, name: str) -> None:
        """Count one offload hit (stats, annotation, trace)."""
        self.hits[name] += 1
        self.machine.stats.note_fastpath(hart.hartid, name)

    # The firmware observes interrupt state through the emulated CSR view
    # (``vctx.mip``): a world-switched emulation of these traps ends with
    # the firmware doing csrs/csrc on the virtual mip, so the offloaded
    # mirror must update both the physical ``mip_sw`` *and* the virtual
    # copy, or the monitor's own interrupt decisions (e.g.
    # ``pending_virtual_interrupt`` while the OS runs) use stale state.

    def _raise_sip(self, hart, vctx: VirtContext, bit: int) -> None:
        hart.state.csr.mip_sw |= bit
        vctx.mip |= bit

    # ------------------------------------------------------------------
    # Exceptions from the OS
    # ------------------------------------------------------------------

    def try_handle_exception(self, hart, vctx: VirtContext, cause: int) -> bool:
        """Attempt to fast-path an OS exception; True if fully handled."""
        if cause == _ILLEGAL_INSTRUCTION:
            return self._handle_illegal(hart)
        if cause == _ECALL_FROM_S:
            return self._handle_sbi(hart, vctx)
        if cause in _MISALIGNED:
            return self._handle_misaligned(hart)
        return False

    def _resume_os_after(self, hart) -> None:
        """Return to the OS just past the trapping instruction."""
        hart.state.pc = (hart.state.csr.mepc + 4) & U64

    # -- time CSR reads -----------------------------------------------------

    def _handle_illegal(self, hart) -> bool:
        try:
            instr = decode(hart.state.csr.read(c.CSR_MTVAL))
        except IllegalInstructionError:
            return False
        if not instr.is_csr_op or instr.csr != c.CSR_TIME:
            return False
        # csrrw/csrrc with a write operand would be a real illegal access.
        if instr.mnemonic not in ("csrrs", "csrrc") or instr.rs1 != 0:
            return False
        hart.state.set_xreg(instr.rd, self.machine.read_mtime())
        hart.charge(self.costs.fastpath_time_read + hart.cycle_model.mmio_access)
        self._note(hart, "time-read")
        self._resume_os_after(hart)
        return True

    # -- SBI calls ---------------------------------------------------------

    _OFFLOADED_SBI = {
        (sbi.EXT_TIMER, sbi.FN_TIMER_SET_TIMER),
        (sbi.EXT_IPI, sbi.FN_IPI_SEND_IPI),
        (sbi.EXT_RFENCE, sbi.FN_RFENCE_FENCE_I),
        (sbi.EXT_RFENCE, sbi.FN_RFENCE_SFENCE_VMA),
        (sbi.EXT_RFENCE, sbi.FN_RFENCE_SFENCE_VMA_ASID),
        (sbi.LEGACY_SET_TIMER, 0),
    }

    def _handle_sbi(self, hart, vctx: VirtContext) -> bool:
        call = SbiCall.from_regs(hart.state.xregs)
        key = (call.eid, 0 if call.eid in sbi.LEGACY_EXTENSIONS else call.fid)
        if key not in self._OFFLOADED_SBI:
            return False
        if call.eid in (sbi.EXT_TIMER, sbi.LEGACY_SET_TIMER):
            ret = self._sbi_set_timer(hart, vctx, call.arg(0))
            name = "set-timer"
        elif call.eid == sbi.EXT_IPI:
            ret = self._sbi_send_ipi(hart, vctx, call.arg(0), call.arg(1))
            name = "ipi"
        else:
            ret = self._sbi_rfence(hart, vctx, call)
            name = "rfence"
        error, value = ret.to_u64()
        hart.state.set_xreg(10, error)
        if call.eid not in sbi.LEGACY_EXTENSIONS:
            hart.state.set_xreg(11, value)
        self._note(hart, name)
        self._resume_os_after(hart)
        return True

    def _sbi_set_timer(self, hart, vctx: VirtContext, deadline: int) -> SbiRet:
        hartid = hart.hartid
        vclint = self.miralis.vclint
        try:
            # Natively there is one comparator per hart and the firmware's
            # set_timer handler clobbers it; retire any deadline the OS
            # programmed directly into the virtual slot so a stale earlier
            # value cannot fire a spurious tick the native machine never
            # sees.
            vclint.mtimecmp[hartid] = U64
            vclint.set_monitor_deadline(hartid, deadline)
        except BusError:
            # Transient CLINT fault: the deadline is latched virtually on
            # retry; report failure so the OS re-arms.
            return SbiRet.failure(sbi.SbiError.ERR_FAILED)
        self.timer_armed[hartid] = True
        # Clear the supervisor timer-pending bit; it is raised again when
        # the physical interrupt arrives (handled by the fast path too).
        hart.state.csr.mip_sw &= ~c.MIP_STIP
        vctx.mip &= ~c.MIP_STIP
        hart.charge(
            self.costs.fastpath_set_timer + hart.cycle_model.mmio_access
        )
        return SbiRet.success()

    def _ipi_targets(self, hart_mask: int, mask_base: int) -> tuple[list[int], bool]:
        """Decode an SBI hart mask, mirroring the firmware's bit-order walk.

        Returns ``(targets, ok)``: the valid targets *up to the first
        out-of-range one*, and whether the whole mask was valid.  The
        firmware delivers to each target as it walks the mask and fails
        at the first invalid hart, so a mixed mask partially delivers —
        validating the whole mask up front and delivering nothing was a
        divergence from both the slow path and native execution.
        """
        num_harts = self.machine.config.num_harts
        if mask_base == U64:
            return list(range(num_harts)), True
        targets: list[int] = []
        mask = hart_mask & U64
        while mask:
            bit = mask & -mask  # the lowest set bit
            target = mask_base + bit.bit_length() - 1
            if not 0 <= target < num_harts:
                return targets, False
            targets.append(target)
            mask ^= bit
        return targets, True

    def _deliver_ipi(self, hart, vctx: VirtContext, targets: list[int]) -> None:
        # Every target — the caller included — gets its MSIP set in the
        # CLINT.  A self-IPI then takes the normal path: the MSI traps to
        # the monitor, whose ``ipi-interrupt`` fast path acks it and
        # forwards SSIP.  (Raising SSIP directly here dropped self-IPIs
        # from the architectural delivery set: the caller's MSIP never
        # pended, diverging from the slow path and from native firmware.)
        for target in targets:
            try:
                self.machine.clint.write(0x0 + 4 * target, 4, 1)
            except BusError:
                continue  # transient CLINT fault: the IPI is lost
            hart.charge(hart.cycle_model.mmio_access)

    def _sbi_send_ipi(self, hart, vctx: VirtContext, hart_mask: int,
                      mask_base: int) -> SbiRet:
        targets, ok = self._ipi_targets(hart_mask, mask_base)
        hart.charge(self.costs.fastpath_ipi)
        self._deliver_ipi(hart, vctx, targets)
        if not ok:
            return SbiRet.failure(sbi.SbiError.ERR_INVALID_PARAM)
        return SbiRet.success()

    def _sbi_rfence(self, hart, vctx: VirtContext, call: SbiCall) -> SbiRet:
        # Reuses the IPI delivery machinery but charges the rfence class
        # cost only — delivery MMIO is still paid per remote target.
        targets, ok = self._ipi_targets(call.arg(0), call.arg(1))
        hart.charge(self.costs.fastpath_rfence + hart.cycle_model.memory_fence)
        self._deliver_ipi(hart, vctx, targets)
        if not ok:
            return SbiRet.failure(sbi.SbiError.ERR_INVALID_PARAM)
        return SbiRet.success()

    # -- misaligned accesses -------------------------------------------------

    def _handle_misaligned(self, hart) -> bool:
        try:
            size = emulate_misaligned(self.machine, hart,
                                      hart.state.csr.read(c.CSR_MTVAL))
        except Exception:
            return False
        if not size:
            return False
        hart.charge(self.costs.fastpath_misaligned + size)
        self._note(hart, "misaligned")
        self._resume_os_after(hart)
        return True

    # ------------------------------------------------------------------
    # M-level interrupts while the OS runs
    # ------------------------------------------------------------------

    def try_handle_interrupt(self, hart, vctx: VirtContext, irq: int,
                             action: str) -> bool:
        """Clear the source of a physical M interrupt the monitor routed
        here (:func:`repro.core.interrupts.route_interrupt`): serve the
        OS's due timer deadline, forward an IPI as SSIP, or ack and drop
        an interrupt no world owns."""
        hartid = hart.hartid
        vclint = self.miralis.vclint
        try:
            if irq == c.IRQ_MSI:
                # The firmware's msip view tracks the physical bit (a
                # direct OS msip write mirrors into it), so the ack clears
                # both — a stale shadow would inject a phantom virtual MSI.
                vclint.msip[hartid] = 0
                self.machine.clint.write(0x0 + 4 * hartid, 4, 0)
            elif action != ACK_DROP or not self.timer_armed[hartid]:
                # The OS's deadline is served, or the comparator is stale:
                # park the monitor deadline, reinstalling the virtual one.
                self.timer_armed[hartid] = False
                vclint.clear_monitor_deadline(hartid)
            else:
                vclint.program_physical_timer(hartid)
        except BusError:
            pass  # ack lost to a transient fault; it re-traps
        if action == ACK_DROP:
            self.machine.stats.annotate_last(
                "miralis", detail=trap_detail("drop", irq), hart=hartid)
            hart.charge(hart.cycle_model.mmio_access)
        elif irq == c.IRQ_MSI:
            self._raise_sip(hart, vctx, c.MIP_SSIP)
            hart.charge(self.costs.fastpath_ipi + hart.cycle_model.mmio_access)
            self._note(hart, "ipi-interrupt")
        else:
            self._raise_sip(hart, vctx, c.MIP_STIP)
            hart.charge(self.costs.fastpath_set_timer)
            self._note(hart, "timer-interrupt")
        return True
