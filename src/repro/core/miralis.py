"""Miralis: the virtual firmware monitor (Figure 4).

Miralis is *host* software — the Python counterpart of the Rust binary —
installed as the machine's M-mode trap handler.  It executes with
interrupts disabled and every handler runs to completion.  The trap
dispatcher routes traps by origin world: traps from vM-mode are emulated,
traps from the OS are either fast-pathed or re-injected into the
virtualized firmware via a world switch.  After each trap it checks for
pending virtual interrupts and returns to the appropriate world.
"""

from __future__ import annotations

from repro.core import bugs
from repro.core.config import MiralisConfig
from repro.core.csr_emul import CsrEffect
from repro.core.emulator import (
    VirtualTrapError,
    emulate_privileged,
    inject_virtual_trap,
)
from repro.core.interrupts import (
    ACKING,
    WORLD_SWITCH,
    pending_virtual_interrupt,
    physical_m_enables,
    refresh_virtual_mip,
    route_interrupt,
)
from repro.core.offload import FastPath
from repro.core.vclint import VirtualClint
from repro.core.vcpu import VirtContext, World
from repro.core.vpmp import PmpVirtualizer
from repro.core.watchdog import FirmwareWatchdog
from repro.core.world_switch import WorldSwitcher
from repro.hart.program import MachineHalted, Region
from repro.hart.stats import trap_detail
from repro.isa import constants as c
from repro.isa.decoder import decode
from repro.isa.instructions import IllegalInstructionError
from repro.policy.interface import PolicyAction
from repro.sbi import constants as sbi
from repro.sbi.constants import SbiError
from repro.sbi.types import SbiCall, SbiRet
from repro.spec.step import BusError
from repro.spec.traps import Trap

U64 = (1 << 64) - 1

#: Mode an OS trap resumes in, by the mstatus.MPP it was taken with; the
#: OS never runs in M-mode, so MPP = M resumes S.
_OS_RESUME_MODE = {0: c.U_MODE, 1: c.S_MODE, 3: c.S_MODE}

#: ``CsrEffect.PMP`` as bits, tested against ``effects._value_``:
#: ``Flag.__and__`` builds a member per test and ``.value`` is a property.
_PMP_EFFECT = CsrEffect.PMP.value
# Enum members the per-trap path compares against, bound once: reading a
# member through its class is a slow attribute lookup on every trap.
_OS = World.OS
_FIRMWARE = World.FIRMWARE
_HANDLED = PolicyAction.HANDLED
_DENY = PolicyAction.DENY
_ILLEGAL_INSTRUCTION = c.TrapCause.ILLEGAL_INSTRUCTION
_ECALL_FROM_U = c.TrapCause.ECALL_FROM_U
_ECALL_FROM_S = c.TrapCause.ECALL_FROM_S
_ACCESS_FAULTS = (c.TrapCause.LOAD_ACCESS_FAULT, c.TrapCause.STORE_ACCESS_FAULT)
_U_MODE = c.U_MODE
_M_MODE = c.M_MODE
_CSR_MTVAL = c.CSR_MTVAL
_CSR_TIME = c.CSR_TIME
_INTERRUPT_BIT = c.INTERRUPT_BIT
_SIP_MASK = c.SIP_MASK
_MSTATUS_MIE = c.MSTATUS_MIE
_MIP_MEIP = c.MIP_MEIP


class Miralis:
    """The virtual firmware monitor."""

    name = "miralis"

    def __init__(self, machine, region: Region, firmware, config: MiralisConfig,
                 policy):
        self.machine = machine
        self.region = region
        self.firmware = firmware
        self.config = config
        self.policy = policy
        num_harts = machine.config.num_harts
        self.vctx = [VirtContext(machine.config, hartid=i) for i in range(num_harts)]
        self.world = [World.FIRMWARE] * num_harts
        # Expose the world list to the machine's coverage hook: trap
        # coverage is keyed per world, and the list is shared (mutated in
        # place on world switches), so this assignment stays current.
        machine.world_view = self.world
        machine.monitor = self
        self.vclint = VirtualClint(machine)
        self.vpmp = PmpVirtualizer(machine, region, policy.num_pmp_entries())
        for vctx in self.vctx:
            vctx.virtual_pmp_count = self.vpmp.virtual_count
        self.switcher = WorldSwitcher(self)
        self.offload = FastPath(self)
        self.violations: list[str] = []
        self._booted = [False] * num_harts
        self._policy_initialized = False
        machine.hart_start_hook = self._start_hart_in_os
        self.watchdog = (
            FirmwareWatchdog(self) if config.watchdog_enabled else None
        )
        if self.watchdog is not None:
            machine.firmware_panic_hook = self.watchdog.on_panic

    # ------------------------------------------------------------------
    # State protocol (checkpoints): composes the components' pairs
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "world": [world.name for world in self.world],
            "vctx": [vctx.snapshot_state() for vctx in self.vctx],
            "vclint": self.vclint.snapshot_state(),
            "offload": self.offload.snapshot_state(),
            "violations": list(self.violations),
            "booted": list(self._booted),
            "policy_initialized": self._policy_initialized,
            "policy": self.policy.snapshot_state(),
            "watchdog": (None if self.watchdog is None
                         else self.watchdog.snapshot_state()),
        }

    def restore_state(self, state: dict) -> None:
        """Load a state captured from a monitor of the same shape (the
        checkpoint layer checks the watchdog and policy match first)."""
        # In place: machine.world_view aliases this list.
        self.world[:] = [World[name] for name in state["world"]]
        for vctx, vctx_state in zip(self.vctx, state["vctx"]):
            vctx.restore_state(vctx_state)
        self.vclint.restore_state(state["vclint"])
        self.offload.restore_state(state["offload"])
        self.violations[:] = state["violations"]
        self._booted[:] = state["booted"]
        self._policy_initialized = state["policy_initialized"]
        if self._policy_initialized:
            # A policy restored from a checkpoint has never seen ``init``
            # (the checkpoint says the boot already ran it).
            self.policy.init(self, self.machine)
            self.policy.restore_state(state["policy"])
        if self.watchdog is not None:
            self.watchdog.restore_state(state["watchdog"])

    # ------------------------------------------------------------------
    # Host-work accounting
    # ------------------------------------------------------------------

    def _charge_host(self, hart, cycles: float) -> None:
        """Charge Miralis host instructions, scaled by core throughput."""
        cost = cycles * hart.cycle_model.instruction
        hart.cycles += cost
        hart.machine.cycles += cost

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def _boot_hart(self, hart) -> None:
        """First entry on a hart: take control of M-mode, enter vM-mode.

        Per Figure 9, Miralis is inserted between the two firmware stages:
        it configures the physical trap vector and memory protection, then
        starts the second-stage firmware fully deprivileged.
        """
        if not self._policy_initialized:
            self.policy.init(self, self.machine)
            self._policy_initialized = True
        vctx = self.vctx[hart.hartid]
        injector = self.machine.fault_injector
        if injector is not None:
            vctx.csr_write_hook = injector.csr_hook(hart.hartid)
        self._booted[hart.hartid] = True
        self.reenter_firmware_boot(hart, vctx)
        if self.watchdog is not None:
            self.watchdog.arm_boot(hart, vctx)
        hart.charge(hart.cycle_model.xret)

    def _start_hart_in_os(self, hartid: int, start_addr: int, opaque: int) -> None:
        """HSM hart_start under virtualization: boot the hart straight to OS."""
        hart = self.machine.harts[hartid]
        boot_vctx = self.vctx[0]
        vctx = self.vctx[hartid]
        vctx.medeleg = boot_vctx.medeleg
        vctx.mtvec = boot_vctx.mtvec
        vctx.mie = boot_vctx.mie
        vctx.virtual_mode = c.S_MODE
        hart.state.csr.mtvec = self.region.base
        self._booted[hartid] = True
        if self.watchdog is not None:
            self.watchdog.os_entered[hartid] = True
        self.switcher.enter_os(hart, vctx, c.S_MODE)
        hart.state.pc = start_addr
        hart.state.set_xreg(10, hartid)
        hart.state.set_xreg(11, opaque)

    # ------------------------------------------------------------------
    # Entry point (machine dispatch lands here when pc is in our region)
    # ------------------------------------------------------------------

    def handle(self, machine, hart) -> None:
        """A hart's first entry boots it; every later one is a trap."""
        hartid = hart.hartid
        if not self._booted[hartid]:
            self._boot_hart(hart)
            return
        worlds = self.world  # mutated in place on world switches
        vctx = self.vctx[hartid]
        model = hart.cycle_model
        state = hart.state
        csr_file = state.csr
        tracer = machine.tracer
        costs = self.config.costs
        # The trap event for this entry was recorded just before dispatch
        # reached us; its handler annotation is final once we return.
        entry_event = machine.stats.last_event if tracer is not None else None
        # _charge_host(dispatch), then hart.charge for the
        # mcause/mepc/mtval reads: the same products in the same order.
        cost = costs.dispatch * model.instruction
        hart.cycles += cost
        machine.cycles += cost
        cost = 3 * model.csr_access
        hart.cycles += cost
        machine.cycles += cost
        mcause = csr_file.mcause
        mepc = csr_file.mepc
        # mtval is plain storage: read as ``CsrFile.read`` would.
        mtval = csr_file._simple[_CSR_MTVAL]
        code = mcause & ~_INTERRUPT_BIT

        world = worlds[hartid]
        if world == _OS:
            # While the OS runs directly it reads/writes sip natively, so
            # the physical SIP bits are authoritative.  A full world switch
            # folds them into vctx.mip in enter_firmware, but the fast path
            # skips that — refresh here so every handler (offload, policy,
            # virtual-interrupt injection) sees a coherent virtual mip.
            vctx.mip = (vctx.mip & ~_SIP_MASK) | (csr_file.mip & _SIP_MASK)
        elif self.watchdog is not None:
            self.watchdog.note_vm_trap(hart, vctx, mcause, mepc, mtval)

        if mcause & _INTERRUPT_BIT:
            self._handle_physical_interrupt(hart, vctx, code, mepc)
        elif worlds[hartid] == _FIRMWARE:
            injector = machine.fault_injector
            if injector is not None and injector.stall_firmware(hartid):
                # Injected runaway loop: resume the trapped instruction
                # without emulating it, so it traps again.  The watchdog's
                # trap-storm detector breaks the cycle.
                machine.stats.annotate_last("fault-inject", detail="stall",
                                            hart=hartid)
                state.pc = mepc
            elif code == _ILLEGAL_INSTRUCTION:
                self._emulate_firmware_instruction(hart, vctx, mepc, mtval)
            else:
                self._handle_firmware_trap(hart, vctx, code, mepc, mtval)
        else:
            self._handle_os_trap(hart, vctx, code, mepc, mtval)

        # The post-trap step.  §4.1: the virtual-interrupt check must run
        # AFTER emulation, as the handled trap may have masked or unmasked
        # interrupts; then the physical M enables follow the world now
        # running.
        if "interrupt_loss" not in bugs.active:
            # _charge_host(interrupt_check), inlined.
            cost = costs.interrupt_check * model.instruction
            hart.cycles += cost
            machine.cycles += cost
            if worlds[hartid] == _FIRMWARE:
                vclint = self.vclint
                refresh_virtual_mip(
                    vctx, machine.read_mtime(), vclint.mtimecmp[hartid],
                    bool(vclint.msip[hartid]),
                    bool(csr_file.mip_hw & _MIP_MEIP))
                # Nothing ready, pending_virtual_interrupt's first test, is
                # the common case: tested here, it costs no call.
                if vctx.mip & vctx.mie & ~vctx.mideleg:
                    irq = pending_virtual_interrupt(vctx, _FIRMWARE)
                    if irq is not None:
                        self._inject_firmware_trap(hart, vctx, irq, True, 0,
                                                   state.pc)
                        cost = costs.inject * model.instruction
                        hart.cycles += cost
                        machine.cycles += cost
        world = worlds[hartid]
        watchdog = self.watchdog
        csr_file.mie = (csr_file.mie & _SIP_MASK) | physical_m_enables(
            world, vctx.mstatus & _MSTATUS_MIE, vctx.mie,
            self.offload.timer_armed[hartid], self.config.offload_enabled,
            watchdog is not None and watchdog.quarantined[hartid])
        if world == _FIRMWARE:
            # Resume the virtualized firmware deprivileged: vM-mode is
            # physical U-mode, always.
            state.mode = _U_MODE
        elif state.mode == _M_MODE:
            # Fast-path or policy-handled trap: drop back to the OS.
            self._return_to_os(hart)
        if tracer is not None:
            tracer.trap_exit(
                machine, hartid,
                entry_event.handler if entry_event is not None
                else "unclassified",
            )
        cost = model.xret
        hart.cycles += cost
        machine.cycles += cost

    # ------------------------------------------------------------------
    # Traps from the virtualized firmware
    # ------------------------------------------------------------------

    def _inject_firmware_trap(self, hart, vctx, cause, is_interrupt, tval,
                              trapped_pc) -> None:
        """Inject a virtual trap, with watchdog depth/vector validation.

        The virtual firmware will classify and annotate this trap, but
        emulating its handler raises further traps on the same hart
        first — pin the delivered event as its annotation target.  A
        watchdog retry pins too: its rewind restored the pin from before
        the activation, and the hart's last trap is the one retried.
        """
        self.machine.stats.pin_injected(hart.hartid)
        pc = inject_virtual_trap(vctx, cause, is_interrupt, tval, trapped_pc)
        if self.watchdog is not None:
            self.watchdog.note_injection(hart, vctx)
            if self.machine.owner_of(pc) is None:
                self.watchdog.on_bad_vector(hart, vctx, pc)
        hart.state.pc = pc

    def _handle_firmware_trap(self, hart, vctx, code, mepc, mtval) -> None:
        """A vM-mode trap other than an emulated instruction."""
        costs = self.config.costs
        if code == _ECALL_FROM_U:
            self.machine.stats.annotate_last("miralis-emulate", detail="vm-ecall", hart=hart.hartid)
            action = self.policy.on_firmware_ecall(hart, vctx)
            if action == _DENY:
                self._violation(hart, "firmware ecall denied by policy")
                return
            if action == _HANDLED:
                hart.state.pc = (mepc + 4) & U64
                return
            self._inject_firmware_trap(
                hart, vctx, c.TrapCause.ECALL_FROM_M, False, 0, mepc
            )
            self._charge_host(hart, costs.inject)
            return
        if code in _ACCESS_FAULTS:
            self._handle_firmware_memory_fault(hart, vctx, code, mepc, mtval)
            return
        # Everything else (misaligned accesses on the firmware's own data,
        # breakpoints, ...) is re-injected into vM-mode.
        trap = Trap(code, tval=mtval)
        action = self.policy.on_firmware_trap(hart, vctx, trap)
        self.machine.stats.annotate_last("miralis-emulate", detail=trap_detail("vm-reinject", code), hart=hart.hartid)
        if action == _DENY:
            self._violation(hart, f"firmware trap {code} denied by policy")
            return
        if action == _HANDLED:
            return
        self._inject_firmware_trap(hart, vctx, code, False, mtval, mepc)
        self._charge_host(hart, costs.inject)

    def _emulate_firmware_instruction(self, hart, vctx, mepc, mtval) -> None:
        machine = self.machine
        costs = self.config.costs
        try:
            instr = decode(mtval)
        except IllegalInstructionError:
            instr = None
        injector = machine.fault_injector
        if (instr is not None and injector is not None
                and injector.flip_instruction(hart.hartid, instr.mnemonic)):
            instr = None  # injected decoder glitch: treat as illegal
        machine.stats.note_firmware_emulation(
            hart.hartid, instr.mnemonic if instr else "invalid")
        # _charge_host(emulate_instruction), inlined.
        cost = costs.emulate_instruction * hart.cycle_model.instruction
        hart.cycles += cost
        machine.cycles += cost
        if instr is None:
            self._inject_firmware_trap(
                hart, vctx, _ILLEGAL_INSTRUCTION, False, mtval, mepc
            )
            return
        state = hart.state
        try:
            result = emulate_privileged(
                vctx, instr, mepc, state.get_xreg, state.set_xreg,
                # Only a ``time`` read consumes mtime.
                machine.read_mtime() if instr.csr == _CSR_TIME else None,
            )
        except VirtualTrapError as exc:
            self._inject_firmware_trap(
                hart, vctx, exc.cause, False, exc.tval, mepc
            )
            self._charge_host(hart, costs.inject)
            return
        if result.effects._value_ & _PMP_EFFECT:
            writes = self.vpmp.install(hart, vctx, World.FIRMWARE, self.policy)
            hart.charge(writes * hart.cycle_model.csr_access)
        if result.is_fence:
            hart.charge(hart.cycle_model.memory_fence)
        if self.watchdog is not None and instr.mnemonic in ("mret", "sret"):
            self.watchdog.note_virtual_xret(hart)
        if result.new_virtual_mode != _M_MODE:  # result.world_switch
            if (self.watchdog is not None
                    and self.machine.owner_of(result.next_pc) is None):
                self.watchdog.recover(
                    hart, vctx,
                    f"world switch targets unmapped pc {result.next_pc:#x}",
                )
            action = self.policy.on_switch_from_firmware(hart, vctx)
            if action == _DENY:
                self._violation(hart, "world switch to OS denied by policy")
                return
            self.switcher.enter_os(hart, vctx, result.new_virtual_mode)
            if self.watchdog is not None:
                self.watchdog.note_enter_os(hart)
            hart.state.pc = result.next_pc
            return
        if result.is_wfi:
            self._firmware_wfi(hart, vctx)
        hart.state.pc = result.next_pc

    def _handle_firmware_memory_fault(self, hart, vctx, code, mepc, mtval) -> None:
        costs = self.config.costs
        if self.watchdog is not None:
            self.watchdog.note_memory_fault(hart, vctx, mtval)
        if self.vclint.contains(mtval):
            try:
                instr = decode(self.machine.ram.read(mepc, 4))
            except IllegalInstructionError:
                instr = None
            if instr is not None and (instr.is_load or instr.is_store):
                self.machine.stats.annotate_last(
                    "miralis-emulate", detail="vclint", hart=hart.hartid
                )
                injector = self.machine.fault_injector
                if injector is not None and injector.mmio_error(
                    "vclint",
                    "write" if instr.is_store else "read",
                    mtval - self.machine.clint.base,
                    hartid=hart.hartid,
                ):
                    # Transient virtual-CLINT fault: surface it to the
                    # firmware as the access fault it already took.
                    self._inject_firmware_trap(
                        hart, vctx, code, False, mtval, mepc
                    )
                    return
                try:
                    self.vclint.emulate_access(hart, instr, mtval)
                except (ValueError, BusError):
                    # Bad register mapping, or a transient fault on the
                    # physical CLINT behind the passthrough path.
                    self._inject_firmware_trap(
                        hart, vctx, code, False, mtval, mepc
                    )
                    return
                self._charge_host(hart, costs.vclint_access)
                hart.state.pc = (mepc + 4) & U64
                return
        if self.region.contains(mtval):
            self._violation(
                hart, f"firmware accessed monitor memory at {mtval:#x}"
            )
            return
        trap = Trap(code, tval=mtval)
        action = self.policy.on_firmware_trap(hart, vctx, trap)
        if action == _DENY:
            self._violation(
                hart,
                f"firmware memory access to {mtval:#x} denied by policy "
                f"({self.policy.name})",
            )
            return
        if action == _HANDLED:
            return
        self.machine.stats.annotate_last("miralis-emulate", detail="vm-fault", hart=hart.hartid)
        self._inject_firmware_trap(hart, vctx, code, False, mtval, mepc)
        self._charge_host(hart, costs.inject)

    def _firmware_wfi(self, hart, vctx) -> None:
        """Emulate WFI from vM-mode: wait until a virtual interrupt pends."""
        vclint, hartid = self.vclint, hart.hartid
        deadlines = (vclint.mtimecmp[hartid], vclint.monitor_mtimecmp[hartid])
        for _ in range(64):
            self._refresh_vmip(hart, vctx)
            if vctx.mip & vctx.mie:
                return
            if not self.machine.fast_forward(deadlines):
                break
        else:
            return
        if self.watchdog is not None:
            self.watchdog.on_wfi_stall(hart, vctx)  # does not return
        self.machine.halt(
            "miralis: virtual firmware waits for interrupt with no "
            "wakeup source armed"
        )
        raise MachineHalted(self.machine.halt_reason)

    # ------------------------------------------------------------------
    # Traps from the OS (direct world)
    # ------------------------------------------------------------------

    def _handle_os_trap(self, hart, vctx, code, mepc, mtval) -> None:
        if code == _ECALL_FROM_S:
            call = SbiCall.from_regs(hart.state.xregs)
            action = self.policy.on_os_ecall(hart, vctx, call)
            if action == _DENY:
                error, _ = SbiRet.failure(SbiError.ERR_DENIED).to_u64()
                hart.state.set_xreg(10, error)
                hart.state.pc = (mepc + 4) & U64
                return
            if action == _HANDLED:
                if self.region.contains(hart.state.pc):
                    # The policy did not redirect control: default return
                    # past the ecall (it may have set a0/a1 results).
                    hart.state.pc = (mepc + 4) & U64
                return
        else:
            action = self.policy.on_os_trap(hart, vctx, Trap(code, tval=mtval))
            if action == _HANDLED:
                if self.region.contains(hart.state.pc):
                    # The policy consumed the trap without redirecting:
                    # resume the OS at the faulting instruction.
                    hart.state.pc = mepc
                return
            if action == _DENY:
                self._violation(hart, f"OS trap {code} denied by policy")
                return

        if (
            code in _ACCESS_FAULTS
            and self.vclint.contains(mtval)
            and self._emulate_os_clint_access(hart, vctx, mepc, mtval)
        ):
            self._return_to_os(hart)
            return
        if self.config.offload_enabled and self.offload.try_handle_exception(
            hart, vctx, code
        ):
            self._return_to_os(hart)
            return
        # Slow path: world switch into the virtualized firmware.
        self._enter_firmware_with_trap(hart, vctx, code, False, mtval, mepc)

    def _emulate_os_clint_access(self, hart, vctx, mepc, mtval) -> bool:
        """Emulate an OS-world CLINT access the monitor's PMP blocked.

        Natively the firmware's PMP grants S-mode the CLINT, so direct OS
        accesses (a kernel reading ``mtime``, poking ``msip``, programming
        ``mtimecmp``) just work; re-injecting the fault into the virtual
        firmware instead panicked it with an exception it never sees
        natively.  Emulation is independent of offloading — the slow path
        OS faults here too.
        """
        try:
            instr = decode(self.machine.ram.read(mepc, 4))
        except IllegalInstructionError:
            return False
        try:
            kind = self.vclint.emulate_os_access(hart, instr, mtval)
        except (ValueError, BusError):
            return False
        if kind is None:
            return False
        self.machine.stats.annotate_last(
            "miralis-emulate", detail=trap_detail("os-clint", kind), hart=hart.hartid
        )
        self._charge_host(hart, self.config.costs.vclint_access)
        hart.state.pc = (mepc + 4) & U64
        return True

    def _enter_firmware_with_trap(self, hart, vctx, code, is_interrupt, mtval,
                                  mepc) -> None:
        if self.watchdog is not None and self.watchdog.quarantined[hart.hartid]:
            self._serve_quarantined(hart, vctx, code, is_interrupt, mtval, mepc)
            return
        action = self.policy.on_switch_from_os(hart, vctx)
        if action == _DENY:
            self._violation(hart, "world switch to firmware denied by policy")
            return
        self.machine.stats.annotate_last(
            "miralis-worldswitch",
            detail=trap_detail("reinject:irq" if is_interrupt else "reinject:exc", code),
            hart=hart.hartid,
        )
        self.switcher.enter_firmware(hart, vctx)
        if self.watchdog is not None:
            self.watchdog.arm_trap(hart, vctx, code, is_interrupt, mtval, mepc)
        self._refresh_vmip(hart, vctx)
        self._inject_firmware_trap(hart, vctx, code, is_interrupt, mtval, mepc)
        hart.state.mode = c.U_MODE
        self._charge_host(hart, self.config.costs.inject)

    def _return_to_os(self, hart) -> None:
        """Resume direct execution after a fast-path handler (mret)."""
        previous = (hart.state.csr.mstatus & c.MSTATUS_MPP) >> c.MSTATUS_MPP_SHIFT
        hart.state.mode = _OS_RESUME_MODE[previous]

    # ------------------------------------------------------------------
    # Physical interrupts
    # ------------------------------------------------------------------

    def _handle_physical_interrupt(self, hart, vctx, irq, mepc) -> None:
        action, target, _ = self._route_physical_interrupt(hart, vctx, irq)
        # Keystone and ACE pull a running enclave or TVM off the core.
        if self.policy.on_interrupt(hart, vctx, irq) == _HANDLED:
            return
        hart.state.pc = mepc
        if action in ACKING:
            return  # _handle_trap drops back to the OS from M-mode
        # Interrupt for the virtual firmware: refresh the virtual mip and
        # let the post-trap check inject it, or switch worlds for it.
        self._refresh_vmip(hart, vctx)
        self.machine.stats.annotate_last("miralis", detail=trap_detail("virq", irq), hart=hart.hartid)
        if action == WORLD_SWITCH:
            self._enter_firmware_with_trap(hart, vctx, target, True, 0, mepc)

    def _route_physical_interrupt(self, hart, vctx, irq):
        """Route ``irq`` and clear its source if the route acks it."""
        hartid = hart.hartid
        vclint = self.vclint
        mtime = self.machine.read_mtime()
        armed = self.offload.timer_armed[hartid]
        route = route_interrupt(
            self.world[hartid], irq, vctx.mstatus & _MSTATUS_MIE, vctx.mie,
            vctx.mip, vctx.mideleg, vclint.msip[hartid],
            hart.state.csr.mip_hw & _MIP_MEIP, mtime >= vclint.mtimecmp[hartid],
            armed, armed and mtime >= vclint.monitor_mtimecmp[hartid],
            self.config.offload_enabled,
            self.watchdog is not None and self.watchdog.quarantined[hartid])
        if route[0] in ACKING:
            self.offload.try_handle_interrupt(hart, vctx, irq, route[0])
        return route

    # ------------------------------------------------------------------
    # Virtual interrupts
    # ------------------------------------------------------------------

    def _refresh_vmip(self, hart, vctx) -> None:
        hartid = hart.hartid
        vclint = self.vclint
        refresh_virtual_mip(
            vctx,
            self.machine.read_mtime(),
            vclint.mtimecmp[hartid],
            bool(vclint.msip[hartid]),
            bool(hart.state.csr.mip_hw & _MIP_MEIP),
        )

    def _sync_physical_mie(self, hart, vctx) -> None:
        """Install the physical M-level enables for the world now running."""
        hartid = hart.hartid
        csr_file = hart.state.csr
        csr_file.mie = (csr_file.mie & _SIP_MASK) | physical_m_enables(
            self.world[hartid], vctx.mstatus & _MSTATUS_MIE, vctx.mie,
            self.offload.timer_armed[hartid], self.config.offload_enabled,
            self.watchdog is not None and self.watchdog.quarantined[hartid],
        )

    # ------------------------------------------------------------------
    # Violations
    # ------------------------------------------------------------------

    def _violation(self, hart, message: str) -> None:
        self.violations.append(message)
        self.machine.stats.annotate_last("miralis-violation", detail=message, hart=hart.hartid)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(self.machine, "violation", hart.hartid, what=message)
        if (self.watchdog is not None
                and self.world[hart.hartid] == _FIRMWARE):
            # Under the watchdog, firmware violations degrade gracefully:
            # neutralize the action; a violation storm triggers recovery.
            self.watchdog.note_violation(
                hart, self.vctx[hart.hartid], message
            )
            self._neutralize(hart)
            return
        if self.config.halt_on_violation:
            self.machine.halt(f"miralis: {message}")
            raise MachineHalted(self.machine.halt_reason)
        self._neutralize(hart)

    def _neutralize(self, hart) -> None:
        # Production behaviour (§5.2): "log the invalid action and return
        # arbitrary values" — neutralize the instruction and feed a blocked
        # load a constant, so nothing real leaks.
        mepc = hart.state.csr.mepc
        try:
            instr = decode(self.machine.ram.read(mepc, 4))
            if instr.is_load:
                hart.state.set_xreg(instr.rd, 0)
        except Exception:
            pass
        hart.state.pc = (mepc + 4) & U64

    # ------------------------------------------------------------------
    # Watchdog recovery entry points
    # ------------------------------------------------------------------

    def reenter_firmware_boot(self, hart, vctx) -> None:
        """Start the firmware at its entry point in vM-mode: at boot, and
        to retry a failed boot activation."""
        csr_file = hart.state.csr
        csr_file.mtvec = self.region.base
        csr_file.medeleg = 0
        csr_file.mideleg = 0
        csr_file.mie = c.MIP_MTIP | c.MIP_MSIP | c.MIP_MEIP
        self.vpmp.install(hart, vctx, World.FIRMWARE, self.policy)
        self.world[hart.hartid] = World.FIRMWARE
        self._charge_host(hart, 2_000)  # monitor bring-up
        hart.state.mode = c.U_MODE
        hart.state.pc = self.firmware.entry_point

    def reinject_after_recovery(self, hart, vctx, code, is_interrupt, mtval,
                                mepc) -> None:
        """Retry a failed trap activation: re-inject the original trap."""
        self.world[hart.hartid] = World.FIRMWARE
        self._refresh_vmip(hart, vctx)
        self._inject_firmware_trap(hart, vctx, code, is_interrupt, mtval, mepc)
        hart.state.mode = c.U_MODE
        self._sync_physical_mie(hart, vctx)
        self._charge_host(hart, self.config.costs.inject)

    def resume_os_quarantined(self, hart, vctx, code, is_interrupt, mtval,
                              mepc, os_mode) -> None:
        """Quarantine fallback: switch back to the OS and serve the trap."""
        self.policy.on_switch_from_firmware(hart, vctx)
        self.switcher.enter_os(hart, vctx, os_mode)
        self._serve_quarantined(hart, vctx, code, is_interrupt, mtval, mepc)
        self._sync_physical_mie(hart, vctx)

    def _serve_quarantined(self, hart, vctx, code, is_interrupt, mtval,
                           mepc) -> None:
        """Handle an OS trap in-monitor while the firmware is quarantined."""
        self.machine.stats.annotate_last(
            "miralis-quarantine",
            detail=f"{'irq' if is_interrupt else 'exc'}:{code}",
            hart=hart.hartid,
        )
        if self.watchdog is not None:
            self.watchdog.count(hart.hartid, "quarantined-served")
        if is_interrupt:
            self._route_physical_interrupt(hart, vctx, code)
            hart.state.pc = mepc
            return
        if self.offload.try_handle_exception(hart, vctx, code):
            return
        if code == _ECALL_FROM_S:
            call = SbiCall.from_regs(hart.state.xregs)
            ret = self._default_sbi(hart, call)
            error, value = ret.to_u64()
            hart.state.set_xreg(10, error)
            if call.eid not in sbi.LEGACY_EXTENSIONS:
                hart.state.set_xreg(11, value)
            hart.state.pc = (mepc + 4) & U64
            return
        self.machine.halt(
            f"miralis: OS trap {code} unservable with firmware quarantined"
        )
        raise MachineHalted(self.machine.halt_reason)

    def _default_sbi(self, hart, call: SbiCall) -> SbiRet:
        """Miralis-served SBI responses for a quarantined firmware.

        Covers the calls an OS needs to keep running or shut down cleanly:
        base queries, console output, HSM status, and system reset.  The
        hot calls (timer, IPI, rfence) are already served by the fast path
        before this is reached.
        """
        if self.watchdog is not None:
            self.watchdog.count(hart.hartid, "default-sbi")
        eid, fid = call.eid, call.fid
        if eid == sbi.EXT_BASE:
            if fid == sbi.FN_BASE_GET_SPEC_VERSION:
                return SbiRet.success(sbi.SBI_SPEC_VERSION_2_0)
            if fid == sbi.FN_BASE_GET_IMPL_ID:
                return SbiRet.success(getattr(self.firmware, "IMPL_ID", 0))
            if fid == sbi.FN_BASE_GET_IMPL_VERSION:
                return SbiRet.success(0)
            if fid == sbi.FN_BASE_PROBE_EXTENSION:
                probeable = (
                    sbi.EXT_BASE, sbi.EXT_TIMER, sbi.EXT_IPI, sbi.EXT_RFENCE,
                    sbi.EXT_HSM, sbi.EXT_SRST, sbi.EXT_DBCN,
                )
                return SbiRet.success(int(call.arg(0) in probeable))
            if fid in (sbi.FN_BASE_GET_MVENDORID, sbi.FN_BASE_GET_MARCHID,
                       sbi.FN_BASE_GET_MIMPID):
                return SbiRet.success(0)
            return SbiRet.failure(SbiError.ERR_NOT_SUPPORTED)
        if eid == sbi.EXT_SRST and fid == sbi.FN_SRST_SYSTEM_RESET:
            self.machine.halt(
                f"sbi system reset (type={call.arg(0)}, reason={call.arg(1)}) "
                f"[firmware quarantined]"
            )
            return SbiRet.success()
        if eid == sbi.EXT_HSM and fid == sbi.FN_HSM_HART_GET_STATUS:
            states = getattr(self.firmware, "hsm_states", None)
            hartid = call.arg(0)
            if states is not None and 0 <= hartid < len(states):
                return SbiRet.success(states[hartid])
            return SbiRet.failure(SbiError.ERR_INVALID_PARAM)
        if eid == sbi.EXT_DBCN:
            if fid == sbi.FN_DBCN_CONSOLE_WRITE_BYTE:
                self._quarantine_putchar(call.arg(0) & 0xFF)
                return SbiRet.success(1)
            if fid == sbi.FN_DBCN_CONSOLE_WRITE:
                count = min(call.arg(0), 4096)
                base = call.arg(1)
                written = 0
                for i in range(count):
                    try:
                        byte = self.machine.spec_bus.read(base + i, 1)
                    except BusError:
                        break
                    self._quarantine_putchar(byte)
                    written += 1
                return SbiRet.success(written)
            return SbiRet.failure(SbiError.ERR_NOT_SUPPORTED)
        if eid == sbi.LEGACY_CONSOLE_PUTCHAR:
            self._quarantine_putchar(call.arg(0) & 0xFF)
            return SbiRet.success()
        if eid == sbi.LEGACY_SHUTDOWN:
            self.machine.halt("sbi legacy shutdown [firmware quarantined]")
            return SbiRet.success()
        return SbiRet.failure(SbiError.ERR_NOT_SUPPORTED)

    def _quarantine_putchar(self, byte: int) -> None:
        try:
            self.machine.uart.write(0, 1, byte)
        except BusError:
            pass  # transient console fault: drop the byte
