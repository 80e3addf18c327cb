"""Keystone policy (§5.3): enclaves as a Miralis policy module.

A re-implementation of the Keystone security monitor's enclave lifecycle —
create / run / resume / stop / destroy over the Keystone SBI extension —
as a policy module.  Enclave memory is protected with policy PMP entries
that take priority over the virtual PMPs, so the enclave is isolated from
*both* the OS and the (now untrusted) vendor firmware; this is exactly the
strengthening over original Keystone that the paper's threat model states.

Simplifications versus the real monitor (documented in DESIGN.md):
attestation returns a stub measurement, and the enclave runtime (Eyrie) is
folded into the enclave application model — enclaves here are resumable
U-mode programs rather than an S-mode runtime + U-mode eapp pair.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Callable, Optional

from repro.core.vcpu import VirtContext
from repro.hart.program import GuestContext, GuestProgram, Region
from repro.isa import constants as c
from repro.policy.interface import PartitionPolicy, PolicyAction
from repro.sbi.types import SbiCall

U64 = (1 << 64) - 1

#: Keystone's SBI extension ID ("KEY" tag used by the upstream monitor).
EXT_KEYSTONE = 0x08424B45

# Host-side function IDs.
FN_CREATE_ENCLAVE = 2001
FN_DESTROY_ENCLAVE = 2002
FN_RUN_ENCLAVE = 2005
FN_RESUME_ENCLAVE = 2006
# Enclave-side function IDs.
FN_RANDOM = 3001
FN_ATTEST_ENCLAVE = 3002
FN_STOP_ENCLAVE = 3004
FN_EXIT_ENCLAVE = 3006

# Error / status codes (matching Keystone's sbi return conventions).
ERR_NO_FREE_RESOURCE = 100_013
ERR_NOT_RUNNABLE = 100_010
ERR_INVALID_ID = 100_004
#: run/resume returns this when the enclave was interrupted and must be
#: resumed (Keystone's ENCLAVE_INTERRUPTED).
ENCLAVE_INTERRUPTED = 100_002


class EnclaveState(enum.Enum):
    FRESH = "fresh"
    RUNNING = "running"
    INTERRUPTED = "interrupted"
    STOPPED = "stopped"
    DESTROYED = "destroyed"


class EnclaveApp(GuestProgram):
    """A resumable U-mode enclave application.

    The workload is a callable ``(app, ctx) -> int`` returning the exit
    value; it must track its own progress in ``app`` attributes so it can
    continue after a forced context switch (timer interrupt).
    """

    resumable = True

    def __init__(self, name: str, region: Region, machine,
                 workload: Callable[["EnclaveApp", GuestContext], int]):
        super().__init__(name, region)
        self.machine = machine
        self.workload = workload
        self.runs = 0
        self.progress = 0

    def boot(self, ctx: GuestContext) -> None:
        self.runs += 1
        exit_value = self.workload(self, ctx)
        # Exit through the SM: traps to the monitor, handled by the policy.
        ctx.ecall(exit_value & U64, a6=FN_EXIT_ENCLAVE, a7=EXT_KEYSTONE)

    def resume(self, ctx: GuestContext) -> None:
        exit_value = self.workload(self, ctx)
        ctx.ecall(exit_value & U64, a6=FN_EXIT_ENCLAVE, a7=EXT_KEYSTONE)

    def handle_trap(self, ctx: GuestContext) -> None:
        raise AssertionError("enclave apps never receive traps directly")


@dataclasses.dataclass
class Enclave:
    """Monitor-side enclave descriptor."""

    eid: int
    app: EnclaveApp
    state: EnclaveState = EnclaveState.FRESH
    measurement: str = ""
    saved_host_regs: Optional[list[int]] = None
    saved_host_pc: int = 0
    saved_enclave_regs: Optional[list[int]] = None
    saved_enclave_pc: int = 0
    interrupts_taken: int = 0


class KeystonePolicy(PartitionPolicy):
    """The Keystone security monitor as a Miralis policy module."""

    name = "keystone"
    #: Bounded by the policy's PMP entry budget: each live enclave needs a
    #: protecting entry while it is not running.
    MAX_ENCLAVES = 2

    def __init__(self):
        self.miralis = None
        self.machine = None
        self.enclaves: dict[int, Enclave] = {}
        self._next_eid = 1
        #: eid of the enclave currently executing on the hart (single-hart
        #: enclave scheduling, as in the paper's RV8 reproduction).
        self.active_eid: Optional[int] = None
        self._apps: dict[int, EnclaveApp] = {}
        self._saved_medeleg = 0
        self._saved_mideleg = 0

    # ------------------------------------------------------------------

    def init(self, miralis, machine) -> None:
        self.miralis = miralis
        self.machine = machine

    def register_app(self, app: EnclaveApp) -> None:
        """Make an enclave application available for create_enclave."""
        self._apps[app.region.base] = app
        if app.machine.owner_of(app.region.base) is None:
            app.machine.register(app)

    def _running_region(self):
        if self.active_eid is None:
            return None
        return self.enclaves[self.active_eid].app.region

    def _live_regions(self) -> list:
        return [enclave.app.region for enclave in self.enclaves.values()
                if enclave.state != EnclaveState.DESTROYED]

    # ------------------------------------------------------------------
    # Host-side SBI interface
    # ------------------------------------------------------------------

    def on_os_ecall(self, hart, vctx: VirtContext, call: SbiCall) -> PolicyAction:
        if call.eid != EXT_KEYSTONE:
            return PolicyAction.CONTINUE
        handler = {
            FN_CREATE_ENCLAVE: self._sbi_create,
            FN_DESTROY_ENCLAVE: self._sbi_destroy,
            FN_RUN_ENCLAVE: self._sbi_run,
            FN_RESUME_ENCLAVE: self._sbi_resume,
        }.get(call.fid)
        if handler is None:
            hart.state.set_xreg(10, ERR_INVALID_ID)
            return PolicyAction.HANDLED
        handler(hart, call)
        return PolicyAction.HANDLED

    def _sbi_create(self, hart, call: SbiCall) -> None:
        base = call.arg(0)
        app = self._apps.get(base)
        if app is None:
            hart.state.set_xreg(10, ERR_INVALID_ID)
            return
        if len([e for e in self.enclaves.values()
                if e.state != EnclaveState.DESTROYED]) >= self.MAX_ENCLAVES:
            hart.state.set_xreg(10, ERR_NO_FREE_RESOURCE)
            return
        eid = self._next_eid
        self._next_eid += 1
        measurement = hashlib.sha256(
            f"{app.name}:{app.region.base:#x}:{app.region.size:#x}".encode()
        ).hexdigest()
        self.enclaves[eid] = Enclave(eid=eid, app=app, measurement=measurement)
        self._reinstall_pmp(hart)
        hart.state.set_xreg(10, 0)
        hart.state.set_xreg(11, eid)
        self.machine.stats.annotate_last("policy-keystone", detail="create", hart=hart.hartid)

    def _sbi_destroy(self, hart, call: SbiCall) -> None:
        enclave = self.enclaves.get(call.arg(0))
        if enclave is None:
            hart.state.set_xreg(10, ERR_INVALID_ID)
            return
        enclave.state = EnclaveState.DESTROYED
        self._reinstall_pmp(hart)
        hart.state.set_xreg(10, 0)
        self.machine.stats.annotate_last("policy-keystone", detail="destroy", hart=hart.hartid)

    def _sbi_run(self, hart, call: SbiCall) -> None:
        enclave = self.enclaves.get(call.arg(0))
        if enclave is None or enclave.state != EnclaveState.FRESH:
            hart.state.set_xreg(10, ERR_NOT_RUNNABLE if enclave else ERR_INVALID_ID)
            return
        self._enter_enclave(hart, enclave, entry=enclave.app.region.base)
        self.machine.stats.annotate_last("policy-keystone", detail="run", hart=hart.hartid)

    def _sbi_resume(self, hart, call: SbiCall) -> None:
        enclave = self.enclaves.get(call.arg(0))
        if enclave is None or enclave.state != EnclaveState.INTERRUPTED:
            hart.state.set_xreg(10, ERR_NOT_RUNNABLE if enclave else ERR_INVALID_ID)
            return
        self._enter_enclave(hart, enclave, entry=None)
        self.machine.stats.annotate_last("policy-keystone", detail="resume", hart=hart.hartid)

    # ------------------------------------------------------------------
    # Context switching
    # ------------------------------------------------------------------

    def _enter_enclave(self, hart, enclave: Enclave, entry: Optional[int]) -> None:
        state = hart.state
        enclave.saved_host_regs = state.xregs
        enclave.saved_host_pc = (state.csr.mepc + 4) & U64
        self.active_eid = enclave.eid
        if entry is not None:  # fresh run: scrubbed register file
            self._enter_guest(hart, [0] * 32, entry, c.U_MODE)
        else:
            self._enter_guest(hart, enclave.saved_enclave_regs,
                              enclave.saved_enclave_pc, c.U_MODE)
        enclave.state = EnclaveState.RUNNING
        hart.charge(hart.cycle_model.tlb_flush + 32 * hart.cycle_model.csr_access)

    def _exit_enclave(self, hart, enclave: Enclave, return_values: tuple) -> None:
        self.active_eid = None
        self._exit_guest(hart, enclave.saved_host_regs, enclave.saved_host_pc,
                         return_values)
        hart.charge(hart.cycle_model.tlb_flush + 32 * hart.cycle_model.csr_access)

    # ------------------------------------------------------------------
    # Enclave-side events
    # ------------------------------------------------------------------

    def on_os_trap(self, hart, vctx: VirtContext, trap) -> PolicyAction:
        if self.active_eid is None:
            return PolicyAction.CONTINUE
        enclave = self.enclaves[self.active_eid]
        call = SbiCall.from_regs(hart.state.xregs)
        if (trap.cause == c.TrapCause.ECALL_FROM_U
                and call.eid == EXT_KEYSTONE):
            return self._handle_enclave_ecall(hart, enclave, call)
        # Any other enclave exception is fatal for the enclave, and host
        # syscall forwarding is out of scope: report and stop.
        self._exit_enclave(hart, enclave, (ERR_NOT_RUNNABLE,))
        enclave.state = EnclaveState.STOPPED
        return PolicyAction.HANDLED

    def _handle_enclave_ecall(self, hart, enclave: Enclave,
                              call: SbiCall) -> PolicyAction:
        if call.fid == FN_EXIT_ENCLAVE:
            self._exit_enclave(hart, enclave, (0, call.arg(0)))
            enclave.state = EnclaveState.STOPPED
            self.machine.stats.annotate_last("policy-keystone", detail="exit", hart=hart.hartid)
            return PolicyAction.HANDLED
        if call.fid == FN_STOP_ENCLAVE:
            self._suspend_enclave(hart, enclave)
            return PolicyAction.HANDLED
        if call.fid == FN_RANDOM:
            # Deterministic "randomness" (no real entropy source modelled).
            seed = f"{enclave.eid}:{self.machine.read_mtime()}".encode()
            hart.state.set_xreg(
                10, int(hashlib.sha256(seed).hexdigest()[:16], 16))
        elif call.fid == FN_ATTEST_ENCLAVE:
            hart.state.set_xreg(10, 0)
            hart.state.set_xreg(11, int(enclave.measurement[:16], 16))
        else:
            hart.state.set_xreg(10, ERR_INVALID_ID)
        hart.state.pc = (hart.state.csr.mepc + 4) & U64
        return PolicyAction.HANDLED

    def _suspend_enclave(self, hart, enclave: Enclave) -> None:
        """Save enclave context and return ENCLAVE_INTERRUPTED to the host."""
        enclave.saved_enclave_regs = hart.state.xregs
        enclave.saved_enclave_pc = hart.state.csr.mepc
        enclave.state = EnclaveState.INTERRUPTED
        enclave.interrupts_taken += 1
        self._exit_enclave(hart, enclave, (ENCLAVE_INTERRUPTED,))

    # ------------------------------------------------------------------
    # Interrupts during enclave execution
    # ------------------------------------------------------------------

    def on_interrupt(self, hart, vctx: VirtContext, irq: int) -> PolicyAction:
        if self.active_eid is None:
            return PolicyAction.CONTINUE
        # The monitor already routed the physical source (e.g. raised
        # STIP for the host); pull the enclave off the core so the host
        # can handle it — Keystone's interrupt model.
        self._suspend_enclave(hart, self.enclaves[self.active_eid])
        self.machine.stats.annotate_last("policy-keystone", detail="interrupted", hart=hart.hartid)
        return PolicyAction.HANDLED
