"""The simulated machine: harts, bus, devices, regions, and dispatch.

The machine owns the global clock (cycles and the derived ``mtime``), the
region map that decides which program or host handler owns each physical
address, and the dispatch loop that routes control transfers (traps,
xRETs, world switches) between them.
"""

from __future__ import annotations

import time
import weakref
from bisect import bisect_right, insort
from collections.abc import Container
from typing import Optional, Protocol, Union

from repro.hart import blocks as _blocks
from repro.hart.clint import Clint
from repro.hart.cycles import TIMEBASE_FREQUENCY, cycle_model_for, mtime_to_cycles
from repro.hart.hart import Hart
from repro.hart.memory import Ram, SystemBus
from repro.hart.plic import Plic
from repro.hart.program import (
    FirmwareRecovered,
    GuestProgram,
    MachineHalted,
    ProtocolError,
    Region,
)
from repro.hart.stats import TrapStats
from repro.hart.uart import Uart
from repro.isa.constants import IRQ_MEI, IRQ_MSI, IRQ_MTI
from repro.perf.counters import register_stats_provider
from repro.spec.platform import PlatformConfig


class HostHandler(Protocol):
    """Host-native M-mode software (the VFM).

    Unlike guest programs, a host handler manipulates hart state directly
    in Python — just as Miralis is Rust code on the host machine rather
    than code the virtualized firmware could inspect.
    """

    name: str
    region: Region

    def handle(self, machine: "Machine", hart: Hart) -> None: ...


Owner = Union[GuestProgram, "HostHandler"]

_MAX_DISPATCHES = 200_000_000


class _UnwindToResume(Exception):
    """Control reached a resume point of an outer ``run_until`` level."""

    def __init__(self, pc: int):
        self.pc = pc
        super().__init__(f"unwind to resume point {pc:#x}")


class Machine:
    """A complete simulated RISC-V platform."""

    def __init__(self, config: PlatformConfig, keep_trap_events: bool = True):
        self.config = config
        # Read by ``read_mtime`` several times per trap.
        self._frequency_hz = config.frequency_hz
        self.cycle_model = cycle_model_for(config)
        self.stats = TrapStats(keep_events=keep_trap_events, machine=self)
        self.cycles = 0.0
        self.halted = False
        self.halt_reason: Optional[str] = None

        ram_size = min(config.ram_bytes, 1 << 32)  # cap simulated RAM window
        self.ram = Ram(config.ram_base, ram_size)
        self.spec_bus = SystemBus(self.ram)
        self.clint = Clint(
            config.clint_base,
            config.num_harts,
            time_source=self.read_mtime,
            set_msip=self._set_msip_line,
            set_mtip=self._set_mtip_line,
        )
        self.plic = Plic(config.plic_base, config.num_harts, set_eip=self._set_eip_line)
        self.uart = Uart(config.uart_base)
        self.spec_bus.attach(self.clint)
        self.spec_bus.attach(self.plic)
        self.spec_bus.attach(self.uart)

        self.harts = [Hart(self, hartid) for hartid in range(config.num_harts)]
        #: Basic-block decoded-run engine for binary images (see
        #: :mod:`repro.hart.blocks`).  None when built inside
        #: ``blocks.blocks_disabled()``: pure single-step execution, the
        #: engine's one off switch.
        self.blocks = _blocks.BlockEngine(self) if _blocks.default_enabled else None
        self._regions: list[tuple[Region, Owner]] = []
        # Sorted-by-base view of ``_regions`` for bisect lookup.  Regions
        # never overlap (enforced in ``register``), so sorting by base gives
        # a total order and ``owner_of`` is a single bisect + bound check.
        self._region_bases: list[int] = []
        #: (region end, owner) in ``_region_bases`` order.
        self._region_index: list[tuple[int, Owner]] = []
        self._dispatches = 0
        self._service_depth = 0
        # One resume stack per hart: run_until levels belong to the hart
        # whose control flow they suspend, so an interleaved SMP run must
        # never compare one hart's pc against another hart's resume set.
        # A level is any container of pcs (a set, or exec's tuple).
        self._resume_stacks: list[list[Container[int]]] = [
            [] for _ in range(config.num_harts)
        ]
        #: Runaway-control-flow backstop; tests may lower it to detect
        #: livelocks (e.g. interrupt storms from a buggy monitor).
        self.max_dispatches = _MAX_DISPATCHES
        #: Installed by the VFM: intercepts HSM hart_start so secondary
        #: harts boot through the monitor instead of directly into S-mode.
        self.hart_start_hook = None
        #: Installed by the VFM's watchdog: consulted by firmware ``panic``
        #: before the machine halts, so the monitor can recover instead.
        self.firmware_panic_hook = None
        #: Active :class:`~repro.faults.FaultInjector`, if any.
        self.fault_injector = None
        #: Active :class:`~repro.trace.Tracer`, if any.  None (the
        #: default) keeps every emit site down to one branch.
        self.tracer = None
        #: Active :class:`~repro.smp.SmpScheduler`, if any.  None (the
        #: default) preserves the legacy run-to-completion hart flow and
        #: keeps the per-instruction check down to one branch.
        self.scheduler = None
        #: Active :class:`~repro.coverage.CoverageMap`, if any.  None
        #: (the default) keeps each trap-record site down to one branch.
        self.coverage = None
        #: Installed by the VFM: its per-hart world list, so the coverage
        #: hook can key traps on the executing world.  None on a bare
        #: machine (recorded as the NATIVE world).
        self.world_view = None
        #: Installed by the VFM: the monitor itself, which checkpoints
        #: capture and restore with the machine.  None on a bare machine.
        self.monitor = None
        # Weakly: the bus's devices call back into this machine, and a
        # strong path from the registry would keep the owner alive.
        bus_ref = weakref.ref(self.spec_bus)

        def bus_provider() -> dict:
            bus = bus_ref()
            if bus is None:
                return {}
            return {
                "hits": bus.device_lookup_hits,
                "misses": bus.device_lookup_misses,
            }

        register_stats_provider("bus.devices", bus_provider, owner=self)
        #: Wall-clock deadline (``time.monotonic()`` value) after which
        #: dispatching raises :class:`ProtocolError`.  Used by the fuzzer
        #: to turn a diverging case into a reported finding.
        self.wall_deadline: Optional[float] = None

    # -- clock ----------------------------------------------------------

    def read_mtime(self) -> int:
        # cycles_to_mtime, inlined: read on every trap and timer check.
        return int(self.cycles * TIMEBASE_FREQUENCY / self._frequency_hz)

    def charge(self, cycles: float) -> None:
        self.cycles += cycles

    @property
    def elapsed_seconds(self) -> float:
        return self.cycles / self.config.frequency_hz

    def refresh_timer_lines(self) -> None:
        self.clint.tick()

    # -- interrupt lines ---------------------------------------------------

    def _set_msip_line(self, hartid: int, level: bool) -> None:
        self.harts[hartid].state.csr.set_interrupt_line(IRQ_MSI, level)
        if level and self.scheduler is None:
            # Legacy (non-SMP) flow: service the parked remote hart
            # synchronously from the sender's stack.  Under the SMP
            # scheduler the target hart is a schedulable entity of its
            # own and handles the interrupt in its next slice.
            self._service_remote(hartid)

    def _set_mtip_line(self, hartid: int, level: bool) -> None:
        self.harts[hartid].state.csr.set_interrupt_line(IRQ_MTI, level)

    def _set_eip_line(self, hartid: int, level: bool) -> None:
        self.harts[hartid].state.csr.set_interrupt_line(IRQ_MEI, level)

    # -- region map --------------------------------------------------------

    def register(self, owner: Owner, region: Optional[Region] = None) -> None:
        """Register a program or host handler as owner of a region."""
        region = region if region is not None else owner.region
        for existing, _ in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise ValueError(f"region {region} overlaps {existing}")
        self._regions.append((region, owner))
        position = bisect_right(self._region_bases, region.base)
        insort(self._region_bases, region.base)
        self._region_index.insert(position, (region.end, owner))

    def owner_of(self, address: int) -> Optional[Owner]:
        position = bisect_right(self._region_bases, address) - 1
        if position >= 0:
            end, owner = self._region_index[position]
            if address < end:
                return owner
        return None

    @property
    def dispatches(self) -> int:
        """Total control transfers routed through :meth:`dispatch_current`."""
        return self._dispatches

    def owners(self) -> list[Owner]:
        """Every registered program and host handler, in registration order."""
        return [owner for _, owner in self._regions]

    def region_named(self, name: str) -> Region:
        for region, _ in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)

    def is_mmio(self, address: int) -> bool:
        return self.spec_bus.device_at(address) is not None

    # -- control flow -------------------------------------------------

    def halt(self, reason: str = "halt") -> None:
        self.halted = True
        self.halt_reason = reason

    def install_fault_injector(self, injector) -> None:
        """Attach (or with None, detach) a fault injector to the devices.

        The monitor additionally consults ``self.fault_injector`` for the
        vCSR-write, decode, stall, and virtual-CLINT sites.
        """
        self.fault_injector = injector
        if injector is not None:
            injector.machine = self  # lets the injector emit trace events
        for name, device in (("clint", self.clint), ("plic", self.plic),
                             ("uart", self.uart)):
            device.fault_hook = injector.device_hook(name) if injector else None

    def dispatch_current(self, hart: Hart) -> None:
        """Dispatch whichever program/handler owns the hart's current pc."""
        self._dispatches += 1
        if self._dispatches > self.max_dispatches:
            raise ProtocolError("dispatch limit exceeded (runaway control flow)")
        if (self.wall_deadline is not None and self._dispatches % 64 == 0
                and time.monotonic() > self.wall_deadline):
            raise ProtocolError("wall-clock budget exceeded (diverging run)")
        owner = self.owner_of(hart.state.pc)
        if owner is None:
            raise ProtocolError(
                f"no program owns pc {hart.state.pc:#x} "
                f"(mode {hart.state.mode.short_name})"
            )
        if isinstance(owner, GuestProgram):
            owner.dispatch(self, hart)
        else:
            owner.handle(self, hart)

    def run_until(self, hart: Hart, resume_pcs: Container[int]) -> None:
        """Dispatch handlers until control returns to one of ``resume_pcs``.

        ``run_until`` calls nest (a trap handler's own operations trap);
        each level records its resume set.  When a handler redirects
        control to a resume point belonging to an *outer* level — e.g. a
        TEE policy suspending an enclave and returning to the OS's
        ``run_enclave`` call site — the inner levels unwind via
        :class:`_UnwindToResume` until the owning level continues.  This
        mirrors hardware, where such a context switch simply abandons the
        interrupted instruction stream.

        A pc owned by a host handler (the monitor) is dispatched here
        directly, under :meth:`dispatch_current`'s guards: a trap into
        the monitor is the common case, and this saves it a call.
        """
        state = hart.state
        stack = self._resume_stacks[hart.hartid]
        stack.append(resume_pcs)
        try:
            while (pc := state.pc) not in resume_pcs:
                if self.halted:
                    raise MachineHalted(self.halt_reason or "halted")
                # Outer levels stay suspended while this one runs, and
                # inner ones have popped; this level's own set never
                # matches (the loop condition), so the whole stack serves.
                for level in stack:
                    if pc in level:
                        raise _UnwindToResume(pc)
                owner = self.owner_of(pc)
                try:
                    if owner is None or isinstance(owner, GuestProgram):
                        self.dispatch_current(hart)
                    else:
                        self._dispatches += 1
                        if self._dispatches > self.max_dispatches:
                            raise ProtocolError("dispatch limit exceeded "
                                                "(runaway control flow)")
                        if (self.wall_deadline is not None
                                and self._dispatches % 64 == 0
                                and time.monotonic() > self.wall_deadline):
                            raise ProtocolError("wall-clock budget exceeded "
                                                "(diverging run)")
                        owner.handle(self, hart)
                except _UnwindToResume:
                    if state.pc in resume_pcs:
                        break
                    raise
                except FirmwareRecovered:
                    # The watchdog reset the firmware context; continue
                    # dispatching from the recovered pc.
                    continue
        finally:
            stack.pop()

    def boot(self, hart_index: int = 0, entry: Optional[int] = None) -> str:
        """Start execution on a hart and run until the machine halts.

        Returns the halt reason.
        """
        hart = self.harts[hart_index]
        if entry is not None:
            hart.state.pc = entry
        try:
            while not self.halted:
                try:
                    self.dispatch_current(hart)
                except FirmwareRecovered:
                    continue
        except MachineHalted:
            pass
        return self.halt_reason or "halted"

    def boot_to(self, stop_pc: int, hart_index: int = 0,
                entry: Optional[int] = None) -> bool:
        """Run like :meth:`boot` until ``hart``'s pc first equals ``stop_pc``
        *at the top-level dispatch loop*.

        This is the machine's named-phase boundary: the moment before a
        top-level dispatch the Python call stack holds no suspended guest
        frames, so the architectural state is quiescent and a
        :mod:`repro.snapshot` checkpoint taken here is complete.  Returns
        True when the phase was reached, False when the machine halted
        first (the caller reads ``halt_reason``).
        """
        hart = self.harts[hart_index]
        if entry is not None:
            hart.state.pc = entry
        try:
            while not self.halted:
                if hart.state.pc == stop_pc:
                    return True
                try:
                    self.dispatch_current(hart)
                except FirmwareRecovered:
                    continue
        except MachineHalted:
            pass
        return False

    @property
    def quiescent(self) -> bool:
        """No guest frames are suspended on the Python stack, so the
        architectural state alone determines the future."""
        return self._service_depth == 0 and not any(self._resume_stacks)

    # -- state protocol ---------------------------------------------------

    def snapshot_state(self) -> dict:
        """Clock and run status only: the components have their own."""
        return {
            "cycles": self.cycles,
            "halted": self.halted,
            "halt_reason": self.halt_reason,
            "dispatches": self._dispatches,
        }

    def restore_state(self, state: dict) -> None:
        self.cycles = state["cycles"]
        self.halted = state["halted"]
        self.halt_reason = state["halt_reason"]
        self._dispatches = state["dispatches"]

    # -- idle / interrupt servicing ----------------------------------------

    def advance_until_interrupt(self, hart: Hart) -> None:
        """Fast-forward time until the hart has a pending interrupt (wfi)."""
        if self.scheduler is not None:
            # Under the SMP scheduler a waiting hart must not fast-forward
            # the shared clock while siblings are runnable: it blocks and
            # time only advances when every hart is waiting.
            self.scheduler.wait_for_interrupt(hart)
            return

        for _ in range(64):
            self.refresh_timer_lines()
            state = hart.state
            if state.csr.mip & state.csr.mie:
                state.waiting_for_interrupt = False
                return
            deadlines = [self.clint.mtimecmp[hart.hartid]]
            if self.config.has_sstc:
                deadlines.append(state.csr.stimecmp)
            deadline = min(deadlines)
            now = self.read_mtime()
            if deadline == (1 << 64) - 1 or deadline <= now:
                break
            self.charge(mtime_to_cycles(deadline - now + 1, self.config.frequency_hz))
        else:
            return
        self.refresh_timer_lines()
        if hart.state.csr.mip & hart.state.csr.mie:
            hart.state.waiting_for_interrupt = False
            return
        reason = f"hart {hart.hartid} is idle in wfi with no wakeup source armed"
        self.halt(reason)
        raise MachineHalted(reason)

    def run_hart_until_parked(self, hart: Hart, max_dispatches: int = 100_000) -> None:
        """Run a (secondary) hart until it parks itself (HSM hart_start)."""
        if self.scheduler is not None:
            # SMP flow: the started hart becomes schedulable and boots
            # interleaved with its siblings instead of running to its
            # parking point on the caller's stack.
            self.scheduler.start_hart(hart)
            return
        for _ in range(max_dispatches):
            if hart.parked_pc is not None or self.halted:
                return
            try:
                self.dispatch_current(hart)
            except FirmwareRecovered:
                continue
        raise ProtocolError(f"hart {hart.hartid} never parked after start")

    def park(self, hart: Hart) -> None:
        """Mark a hart as idle at its current pc (IPI service point)."""
        hart.parked_pc = hart.state.pc

    def _service_remote(self, hartid: int) -> None:
        """Run a parked remote hart's interrupt handling to completion.

        Called when an IPI line is raised for a hart that is idle; models
        the remote core waking, handling the interrupt (through firmware,
        the VFM, and/or the OS) and going back to sleep.
        """
        hart = self.harts[hartid]
        if hart.parked_pc is None or self._service_depth > 4:
            return
        self._service_depth += 1
        try:
            self.charge(self.cycle_model.ipi_remote_delivery)
            while hart.check_interrupts():
                self.run_until(hart, {hart.parked_pc})
        finally:
            self._service_depth -= 1
