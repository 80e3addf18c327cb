"""ACE policy (§5.4): confidential VMs as a Miralis policy module.

Ports the ACE security monitor's confidential-VM (CVM) lifecycle to a
policy module.  The host hypervisor stays in charge of scheduling VMs but
loses access to their memory; the paper's deployment further *excludes
the vendor firmware from the TCB* — realized here by policy PMP entries
that deny CVM memory in the firmware world as well.

Per §5.4 the ACE policy uses a co-location approach: while the hypervisor
or a CVM executes, the policy handles traps itself (HANDLED), yielding to
Miralis only for events that concern the virtualized firmware.  The CVM
runs under the hypervisor extension; on world switches the policy saves
and restores the HS/VS CSR file, which is "no special treatment compared
to any other S-mode extension" (§5.4).

Simplifications (documented in DESIGN.md): a CVM is a resumable guest
program standing in for a Linux VM with a virtio NIC and disk — its
device I/O appears as COVG shared-memory exits; attestation (TSM info) is
a stub; second-stage address translation is represented by ``hgatp``
bookkeeping, not page walks (the reference spec models bare mode only).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Optional

from repro.core.vcpu import VirtContext
from repro.hart.program import GuestContext, GuestProgram, Region
from repro.isa import constants as c
from repro.policy.interface import PartitionPolicy, PolicyAction
from repro.sbi.types import SbiCall

U64 = (1 << 64) - 1

#: CoVE host- and guest-side SBI extension IDs ("COVH"/"COVG").
EXT_COVH = 0x434F5648
EXT_COVG = 0x434F5647

# Host-side functions.
FN_TSM_GET_INFO = 0
FN_PROMOTE_TO_TVM = 1
FN_TVM_VCPU_RUN = 2
FN_DESTROY_TVM = 3
# Guest-side functions.
FN_SHARE_MEMORY = 0
FN_GUEST_EXIT = 1

# vcpu_run exit reasons (a1 on return).
EXIT_INTERRUPTED = 1
EXIT_GUEST_REQUEST = 2
EXIT_DONE = 3

ERR_INVALID_TVM = -2
ERR_NOT_RUNNABLE = -3


class TvmState(enum.Enum):
    RUNNABLE = "runnable"
    RUNNING = "running"
    DONE = "done"
    DESTROYED = "destroyed"


class ConfidentialVm(GuestProgram):
    """A resumable confidential VM (VS-mode guest under the H extension).

    The workload is a callable ``(vm, ctx) -> None`` that may call
    :meth:`guest_request` to model virtio I/O through shared memory.
    """

    resumable = True

    def __init__(self, name: str, region: Region, machine,
                 workload: Callable[["ConfidentialVm", GuestContext], None]):
        super().__init__(name, region)
        self.machine = machine
        self.workload = workload
        self.progress = 0
        self.guest_requests = 0

    def guest_request(self, ctx: GuestContext, request: int, value: int = 0):
        """COVG call: exit to the host for an I/O request."""
        self.guest_requests += 1
        return ctx.ecall(request, value, a6=FN_GUEST_EXIT, a7=EXT_COVG)

    def boot(self, ctx: GuestContext) -> None:
        self.workload(self, ctx)
        ctx.ecall(0, a6=FN_GUEST_EXIT, a7=EXT_COVG)  # final exit

    def resume(self, ctx: GuestContext) -> None:
        self.workload(self, ctx)
        ctx.ecall(0, a6=FN_GUEST_EXIT, a7=EXT_COVG)

    def handle_trap(self, ctx: GuestContext) -> None:
        raise AssertionError("confidential VMs never receive traps directly")


@dataclasses.dataclass
class Tvm:
    """Monitor-side TVM descriptor."""

    tvm_id: int
    vm: ConfidentialVm
    state: TvmState = TvmState.RUNNABLE
    fresh: bool = True
    saved_host_regs: Optional[list[int]] = None
    saved_host_pc: int = 0
    saved_host_hcsrs: Optional[dict[int, int]] = None
    saved_vm_regs: Optional[list[int]] = None
    saved_vm_pc: int = 0
    exits: int = 0


class AcePolicy(PartitionPolicy):
    """The ACE confidential-computing monitor as a policy module."""

    name = "ace"
    MAX_TVMS = 2

    def __init__(self):
        self.miralis = None
        self.machine = None
        self.tvms: dict[int, Tvm] = {}
        self._next_id = 1
        self.active_tvm: Optional[int] = None
        self._vms: dict[int, ConfidentialVm] = {}
        self._saved_medeleg = 0
        self._saved_mideleg = 0

    def init(self, miralis, machine) -> None:
        self.miralis = miralis
        self.machine = machine
        if not machine.config.has_h_extension:
            raise ValueError(
                "the ACE policy requires the hypervisor extension "
                f"(platform {machine.config.name} lacks misa.H)"
            )

    def register_vm(self, vm: ConfidentialVm) -> None:
        self._vms[vm.region.base] = vm
        if vm.machine.owner_of(vm.region.base) is None:
            vm.machine.register(vm)

    def _running_region(self):
        if self.active_tvm is None:
            return None
        return self.tvms[self.active_tvm].vm.region

    def _live_regions(self) -> list:
        # CVM memory is inaccessible to the hypervisor AND the firmware
        # (the paper's strengthened threat model).
        return [tvm.vm.region for tvm in self.tvms.values()
                if tvm.state != TvmState.DESTROYED]

    # ------------------------------------------------------------------
    # Host-side COVH interface
    # ------------------------------------------------------------------

    def on_os_ecall(self, hart, vctx: VirtContext, call: SbiCall) -> PolicyAction:
        if call.eid == EXT_COVG and self.active_tvm is not None:
            # Guest-side call arriving from VS context via ECALL_FROM_S.
            self._handle_guest_exit(hart, call)
            return PolicyAction.HANDLED
        if call.eid != EXT_COVH:
            return PolicyAction.CONTINUE
        handler = {
            FN_TSM_GET_INFO: self._sbi_tsm_info,
            FN_PROMOTE_TO_TVM: self._sbi_promote,
            FN_TVM_VCPU_RUN: self._sbi_vcpu_run,
            FN_DESTROY_TVM: self._sbi_destroy,
        }.get(call.fid)
        if handler is None:
            hart.state.set_xreg(10, ERR_INVALID_TVM & U64)
            return PolicyAction.HANDLED
        handler(hart, call)
        return PolicyAction.HANDLED

    def _sbi_tsm_info(self, hart, call: SbiCall) -> None:
        hart.state.set_xreg(10, 0)
        hart.state.set_xreg(11, len(self.tvms))

    def _sbi_promote(self, hart, call: SbiCall) -> None:
        vm = self._vms.get(call.arg(0))
        if vm is None:
            hart.state.set_xreg(10, ERR_INVALID_TVM & U64)
            return
        live = [t for t in self.tvms.values() if t.state != TvmState.DESTROYED]
        if len(live) >= self.MAX_TVMS:
            hart.state.set_xreg(10, ERR_NOT_RUNNABLE & U64)
            return
        tvm_id = self._next_id
        self._next_id += 1
        self.tvms[tvm_id] = Tvm(tvm_id=tvm_id, vm=vm)
        self._reinstall_pmp(hart)
        hart.state.set_xreg(10, 0)
        hart.state.set_xreg(11, tvm_id)
        self.machine.stats.annotate_last("policy-ace", detail="promote", hart=hart.hartid)

    def _sbi_destroy(self, hart, call: SbiCall) -> None:
        tvm = self.tvms.get(call.arg(0))
        if tvm is None:
            hart.state.set_xreg(10, ERR_INVALID_TVM & U64)
            return
        tvm.state = TvmState.DESTROYED
        self._reinstall_pmp(hart)
        hart.state.set_xreg(10, 0)
        self.machine.stats.annotate_last("policy-ace", detail="destroy", hart=hart.hartid)

    def _sbi_vcpu_run(self, hart, call: SbiCall) -> None:
        tvm = self.tvms.get(call.arg(0))
        if tvm is None or tvm.state not in (TvmState.RUNNABLE,):
            hart.state.set_xreg(10, ERR_NOT_RUNNABLE & U64)
            return
        self._enter_tvm(hart, tvm)
        self.machine.stats.annotate_last("policy-ace", detail="vcpu-run", hart=hart.hartid)

    # ------------------------------------------------------------------
    # TVM context switching (with H-extension CSR save/restore)
    # ------------------------------------------------------------------

    def _h_csr_addresses(self, hart) -> list[int]:
        return [
            addr for addr in (
                c.CSR_HSTATUS, c.CSR_HEDELEG, c.CSR_HIDELEG, c.CSR_HIE,
                c.CSR_HVIP, c.CSR_HCOUNTEREN, c.CSR_HGEIE, c.CSR_HTVAL,
                c.CSR_HTINST, c.CSR_VSSTATUS, c.CSR_VSIE, c.CSR_VSTVEC,
                c.CSR_VSSCRATCH, c.CSR_VSEPC, c.CSR_VSCAUSE, c.CSR_VSTVAL,
            )
            if hart.state.csr.exists(addr)
        ]

    def _enter_tvm(self, hart, tvm: Tvm) -> None:
        state = hart.state
        tvm.saved_host_regs = state.xregs
        tvm.saved_host_pc = (state.csr.mepc + 4) & U64
        tvm.saved_host_hcsrs = {
            addr: state.csr.read(addr) for addr in self._h_csr_addresses(hart)
        }
        self.active_tvm = tvm.tvm_id
        # The CVM executes as a VS-mode guest; in this model its privileged
        # surface is S-level, so it runs in S with its own CSR context.
        if tvm.fresh:
            self._enter_guest(hart, [0] * 32, tvm.vm.region.base, c.S_MODE)
            tvm.fresh = False
        else:
            self._enter_guest(hart, tvm.saved_vm_regs, tvm.saved_vm_pc,
                              c.S_MODE)
        tvm.state = TvmState.RUNNING
        hart.charge(
            hart.cycle_model.tlb_flush
            + (32 + len(tvm.saved_host_hcsrs)) * hart.cycle_model.csr_access
        )

    def _exit_tvm(self, hart, tvm: Tvm, return_values: tuple) -> None:
        self.active_tvm = None
        for addr, value in (tvm.saved_host_hcsrs or {}).items():
            hart.state.csr.write(addr, value)
        self._exit_guest(hart, tvm.saved_host_regs, tvm.saved_host_pc,
                         return_values)
        tvm.exits += 1
        hart.charge(
            hart.cycle_model.tlb_flush
            + (32 + len(tvm.saved_host_hcsrs or {})) * hart.cycle_model.csr_access
        )

    # ------------------------------------------------------------------
    # Guest exits and interrupts
    # ------------------------------------------------------------------

    def _handle_guest_exit(self, hart, call: SbiCall) -> None:
        tvm = self.tvms[self.active_tvm]
        if call.fid == FN_GUEST_EXIT and call.arg(0) == 0:
            tvm.saved_vm_regs = None
            tvm.state = TvmState.DONE
            self._exit_tvm(hart, tvm, (0, EXIT_DONE))
            self.machine.stats.annotate_last("policy-ace", detail="tvm-done", hart=hart.hartid)
            return
        # I/O request: suspend the TVM, report the request to the host.
        tvm.saved_vm_regs = hart.state.xregs
        tvm.saved_vm_pc = (hart.state.csr.mepc + 4) & U64
        tvm.state = TvmState.RUNNABLE
        self._exit_tvm(hart, tvm, (0, EXIT_GUEST_REQUEST, call.arg(0), call.arg(1)))
        self.machine.stats.annotate_last("policy-ace", detail="guest-request", hart=hart.hartid)

    def on_os_trap(self, hart, vctx: VirtContext, trap) -> PolicyAction:
        if self.active_tvm is None:
            return PolicyAction.CONTINUE
        tvm = self.tvms[self.active_tvm]
        # A synchronous exception from the TVM is fatal (a real monitor
        # would deliver it to the guest's VS-mode handler; this model's
        # guests have none): kill the TVM rather than retry forever.
        tvm.state = TvmState.DONE
        self._exit_tvm(hart, tvm, (ERR_NOT_RUNNABLE & U64, EXIT_DONE))
        self.machine.stats.annotate_last("policy-ace", detail="tvm-fault", hart=hart.hartid)
        return PolicyAction.HANDLED

    def on_interrupt(self, hart, vctx: VirtContext, irq: int) -> PolicyAction:
        if self.active_tvm is None:
            return PolicyAction.CONTINUE
        tvm = self.tvms[self.active_tvm]
        tvm.saved_vm_regs = hart.state.xregs
        tvm.saved_vm_pc = hart.state.csr.mepc
        tvm.state = TvmState.RUNNABLE
        self._exit_tvm(hart, tvm, (0, EXIT_INTERRUPTED))
        self.machine.stats.annotate_last("policy-ace", detail="interrupted", hart=hart.hartid)
        return PolicyAction.HANDLED
