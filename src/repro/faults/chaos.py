"""Chaos harness: boot a firmware under a fault plan, classify the end.

One :func:`run_chaos` call assembles a full platform, installs a seeded
:class:`~repro.faults.injector.FaultInjector`, arms the firmware watchdog,
and runs to completion, bounded by
:data:`~repro.hart.machine.CASE_DISPATCH_LIMIT` dispatches per hart
alone.  The contract checked by the chaos suite is the robustness goal of
the fault model: for every firmware × plan × seed the run either reaches
the OS workload checkpoint or terminates through a *recorded* recovery
decision (retry or quarantine) — never by leaking a Python exception out
of the simulator.

Everything is deterministic: the injector draws from ``random.Random(seed)``
in simulator execution order and the simulator itself has no wall-clock
dependence, so two runs with the same (firmware, plan, seed) produce
identical trap logs.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.faults.injector import FaultInjector
from repro.faults.plans import resolve_plan
from repro.hart.machine import CASE_DISPATCH_LIMIT
from repro.spec.platform import PlatformConfig, VISIONFIVE2

#: Firmware payloads the chaos suite exercises.
CHAOS_FIRMWARES = ("opensbi", "rustsbi", "zephyr", "malicious")

#: Named boot phases a chaos run can start injecting faults at.  With a
#: phase, the boot up to that point runs fault-free and the injector is
#: armed at the phase boundary — which is also the machine's quiescent
#: checkpoint boundary, so restoring a :mod:`repro.snapshot` checkpoint
#: taken there is observationally identical to re-simulating the boot.
CHAOS_PHASES = ("kernel-entry",)

#: Per-process cache of phase checkpoints, keyed by
#: ``(platform, firmware)``.  The first phased cell for a pair in a
#: process boots its own system to the phase and fills the entry; every
#: later cell for the pair restores it instead of re-simulating the boot.
_WARM_BOOTS: dict = {}

#: Halt reasons that count as a clean end even without an explicit
#: checkpoint or quarantine (normal shutdown paths).
_CLEAN_HALTS = (
    "sbi system reset",
    "workload complete",
    "firmware quarantined",
)

#: Flight-recorder bound on :attr:`ChaosResult.trap_log`.  A long SMP
#: chaos run records O(steps) trap events; carrying them all in the
#: result is unbounded memory and a footgun once results cross process
#: boundaries (the campaign runner pickles every ``ChaosResult``).  The
#: last ``TRAP_LOG_LIMIT`` events plus ``trap_log_total`` preserve the
#: determinism contract (identical runs still compare equal) and the
#: end-of-run diagnosis window.
TRAP_LOG_LIMIT = 128


@dataclasses.dataclass
class ChaosResult:
    """Outcome of one chaos run, sufficient to reproduce and classify it."""

    firmware: str
    plan: str
    seed: int
    halt_reason: str = ""
    checkpoint: bool = False
    quarantined: bool = False
    #: Watchdog decisions summed over harts (``watchdog.counters``).
    recoveries: dict = dataclasses.field(default_factory=dict)
    #: Watchdog decisions keyed by hart (``watchdog.hart_counters``, the
    #: store ``recoveries`` is summed from).
    hart_recoveries: list = dataclasses.field(default_factory=list)
    injections: int = 0
    #: Every committed injection as ``(site, index, detail)`` — the raw
    #: material for repro-bundle failure signatures.
    injection_log: tuple = ()
    #: Watchdog quarantine records (hart, reason, pending kind) captured
    #: at the moment of quarantine; see ``FirmwareWatchdog.quarantine_records``.
    quarantine_log: tuple = ()
    #: Last :data:`TRAP_LOG_LIMIT` trap events (flight recorder).
    trap_log: tuple = ()
    #: Every trap event the run logged, net of watchdog rewinds
    #: (``TrapStats.logged``): exact even once the machine's bounded
    #: ring has dropped the oldest events.
    trap_log_total: int = 0
    console: str = ""
    error: Optional[str] = None
    #: The resolved fault plan as a plain document
    #: (``FaultPlan.to_dict()``) — what a repro bundle needs to re-run
    #: this exact run without access to the canned-plan registry.
    #: ``None`` when plan resolution itself failed.
    plan_spec: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """The robustness contract: checkpoint, quarantine, or clean halt —
        and no Python exception escaped the simulator."""
        if self.error is not None:
            return False
        if self.checkpoint or self.quarantined:
            return True
        return any(marker in self.halt_reason for marker in _CLEAN_HALTS)

    def report(self) -> str:
        lines = [
            f"firmware:     {self.firmware}",
            f"plan:         {self.plan}",
            f"seed:         {self.seed}",
            f"halt:         {self.halt_reason}",
            f"checkpoint:   {self.checkpoint}",
            f"quarantined:  {self.quarantined}",
            f"injections:   {self.injections}",
            f"recoveries:   {self.recoveries}",
            f"verdict:      {'OK' if self.ok else 'FAILED'}",
        ]
        if self.error is not None:
            lines.append(f"error:        {self.error}")
        return "\n".join(lines)


def _chaos_miralis_config() -> "object":
    from repro.core.config import MiralisConfig

    return MiralisConfig(
        offload_enabled=False,
        watchdog_enabled=True,
        halt_on_violation=False,
    )


def _sbi_chaos_workload(checkpoint: list, trigger_attack: bool, secret: int):
    """An S-mode workload touching every offload-relevant surface, ending
    at an explicit checkpoint marker."""

    def workload(kernel, ctx):
        if trigger_attack:
            from repro.firmware.malicious import TRIGGER_EID

            ctx.store(secret, 0x5EC12E7, size=8)
            kernel.sbi_call(ctx, TRIGGER_EID, 0)
        t0 = kernel.read_time(ctx)
        ctx.compute(2_000)
        kernel.sbi_send_ipi(ctx, 0b1, 0)
        ctx.compute(200)
        t1 = kernel.read_time(ctx)
        ctx.store(kernel.region.base + 0x8000, t1 - t0, size=8)
        checkpoint.append(True)
        kernel.print(ctx, "chaos: checkpoint reached\n")

    return workload


def _build_sbi_system(platform: PlatformConfig, firmware: str,
                      smp: bool = False) -> tuple:
    """Assemble the SBI chaos platform (OpenSBI/RustSBI/malicious under
    the sandbox policy); returns (system, workload-checkpoint list)."""
    from repro.firmware.malicious import MaliciousFirmware
    from repro.firmware.opensbi import OpenSbiFirmware
    from repro.firmware.rustsbi import RustSbiFirmware
    from repro.policy.sandbox import FirmwareSandboxPolicy
    from repro.system import build_virtualized, memory_regions

    checkpoint: list = []
    regions = memory_regions(platform)
    secret = regions["kernel"].base + 0x2000
    firmware_kwargs: dict = {}
    firmware_class: type
    if firmware == "malicious":
        firmware_class = MaliciousFirmware
        firmware_kwargs = {
            "attack": "read_os_memory",
            "os_secret_address": secret,
            "monitor_address": regions["miralis"].base + 0x100,
        }
    elif firmware == "rustsbi":
        firmware_class = RustSbiFirmware
    else:
        firmware_class = OpenSbiFirmware
    system = build_virtualized(
        platform,
        firmware_class=firmware_class,
        workload=_sbi_chaos_workload(
            checkpoint, firmware == "malicious", secret
        ),
        policy=FirmwareSandboxPolicy(
            extra_allowed_regions=[(platform.uart_base, 0x100)]
        ),
        firmware_kwargs=firmware_kwargs,
        miralis_config=_chaos_miralis_config(),
        start_secondaries=smp,
    )
    return system, checkpoint


def capture_kernel_entry(system):
    """Boot a fresh ``system`` fault-free to the firmware→kernel handoff
    and capture the ``kernel-entry`` checkpoint there.

    Returns None when the machine halted first (the caller reads
    ``machine.halt_reason``).  The machine stays at the boundary, so the
    caller may arm an injector and run on.
    """
    from repro.snapshot import capture

    machine = system.machine
    if not machine.boot_to(system.kernel.entry_point,
                           entry=system.miralis.region.base):
        return None
    return capture(machine, phase="kernel-entry")


def _arm_injector(system, injector: FaultInjector, tracer,
                  coverage=None) -> None:
    """Attach tracer and injector to a system standing at a phase.

    Mirrors what an unphased boot does implicitly:
    ``install_fault_injector`` hooks the devices, and ``_boot_hart``
    would have wired each virtual context's CSR write hook had the
    injector been present at boot.  A phased cell arms here whether it
    booted to the phase itself or restored the cached checkpoint, so
    the two paths arm identically.
    """
    machine = system.machine
    machine.tracer = tracer
    machine.coverage = coverage
    machine.install_fault_injector(injector)
    if injector is not None:
        for hartid, vctx in enumerate(system.miralis.vctx):
            vctx.csr_write_hook = injector.csr_hook(hartid)


def _sbi_chaos(
    result: ChaosResult,
    injector: FaultInjector,
    platform: PlatformConfig,
    firmware: str,
    tracer=None,
    coverage=None,
    smp: bool = False,
    quantum: int = 50,
    smp_seed: int = 0,
    smp_jitter: int = 0,
    phase: Optional[str] = None,
) -> tuple:
    """Build an SBI firmware (OpenSBI/RustSBI/malicious) platform under the
    sandbox with the watchdog armed; returns (machine, miralis, run),
    where ``run()`` boots it and returns the halt reason.

    With a ``phase``, the boot up to that point runs fault-free and the
    injector is armed at the boundary.  The boundary is restored from
    :data:`_WARM_BOOTS` when the process already holds it; otherwise the
    cell boots there itself and captures it for the cells after it.
    """
    system, checkpoint = _build_sbi_system(platform, firmware, smp=smp)
    machine = system.machine

    def run() -> str:
        if phase is None:
            machine.tracer = tracer
            machine.coverage = coverage
            machine.install_fault_injector(injector)
            if smp:
                reason = system.run_smp(
                    quantum=quantum, seed=smp_seed, jitter=smp_jitter
                )
            else:
                reason = system.run()
        else:
            key = (platform, firmware)
            boot = _WARM_BOOTS.get(key)
            if boot is None:
                boot = capture_kernel_entry(system)
                if boot is not None:
                    _WARM_BOOTS[key] = boot
            else:
                from repro.snapshot import restore

                restore(machine, boot)
            _arm_injector(system, injector, tracer, coverage=coverage)
            reason = machine.boot() if boot is not None else (
                machine.halt_reason or "halted"
            )
        result.checkpoint = bool(checkpoint)
        return reason

    return machine, system.miralis, run


def _zephyr_chaos(
    result: ChaosResult,
    injector: FaultInjector,
    platform: PlatformConfig,
    tracer=None,
    coverage=None,
) -> tuple:
    """Build the Zephyr RTOS in vM-mode under the watchdog, as
    :func:`_sbi_chaos` does.  There is no S-mode OS; the checkpoint is
    the RTOS test suite completing."""
    from repro.core.miralis import Miralis
    from repro.firmware.zephyr import ZephyrFirmware
    from repro.hart.machine import Machine
    from repro.policy.default import DefaultPolicy
    from repro.system import memory_regions

    machine = Machine(platform)
    regions = memory_regions(platform)
    zephyr = ZephyrFirmware("zephyr", regions["firmware"], machine, num_ticks=5)
    miralis = Miralis(
        machine=machine,
        region=regions["miralis"],
        firmware=zephyr,
        config=_chaos_miralis_config(),
        policy=DefaultPolicy(),
    )
    machine.register(zephyr)
    machine.register(miralis)
    machine.tracer = tracer
    machine.coverage = coverage
    machine.install_fault_injector(injector)

    def run() -> str:
        reason = machine.boot(entry=miralis.region.base)
        result.checkpoint = (zephyr.suite_passed()
                             or "workload complete" in reason)
        return reason

    return machine, miralis, run


def check_chaos_args(firmware: str, harts: Optional[int] = None,
                     phase: Optional[str] = None) -> None:
    """Raise ValueError for a chaos run that cannot start.

    :func:`run_chaos` checks its own arguments with this, and
    ``campaign.chaos_cells`` checks every firmware of a matrix before any
    cell runs.
    """
    if firmware not in CHAOS_FIRMWARES:
        raise ValueError(
            f"unknown firmware {firmware!r}; choose from {CHAOS_FIRMWARES}"
        )
    if harts is not None and harts < 1:
        raise ValueError("harts must be at least 1")
    if phase is not None and phase not in CHAOS_PHASES:
        raise ValueError(
            f"unknown phase {phase!r}; choose from {CHAOS_PHASES}"
        )
    if phase is not None and firmware == "zephyr":
        raise ValueError("zephyr has no kernel-entry phase")
    if phase is not None and harts is not None:
        raise ValueError("phase starts require a single-hart run")


def run_chaos(
    firmware: str = "opensbi",
    plan="random",
    seed: int = 0,
    platform: PlatformConfig = VISIONFIVE2,
    tracer=None,
    coverage=None,
    harts: Optional[int] = None,
    quantum: int = 50,
    smp_jitter: int = 0,
    phase: Optional[str] = None,
) -> ChaosResult:
    """Boot ``firmware`` under fault ``plan`` with ``seed``; never raises.

    ``harts`` switches the run onto the deterministic SMP scheduler with
    that many harts: secondaries are started and every hart interleaves
    round-robin (``quantum`` checkpoints per slice, schedule seeded from
    ``seed``), so faults land on secondary harts too.  Zephyr runs have
    no S-mode OS to start secondaries, so ``harts`` only resizes the
    platform there.

    ``tracer`` and ``coverage`` attach an optional Tracer / CoverageMap
    to the machine for the run (both default to off, keeping hot-path
    hooks at one branch).

    ``phase`` starts fault injection at a named boot phase (see
    :data:`CHAOS_PHASES`) instead of at reset; the boot up to the phase
    runs fault-free.  The first phased run per (platform, firmware) in a
    process simulates that boot and caches its checkpoint; later runs
    restore it.  Results are identical either way, only wall-clock
    changes.  Phases apply to single-hart SBI runs.
    """
    check_chaos_args(firmware, harts=harts, phase=phase)
    plan_label = plan if isinstance(plan, str) else getattr(plan, "name", "?")
    result = ChaosResult(firmware=str(firmware), plan=str(plan_label),
                         seed=seed)
    machine = miralis = injector = None
    try:
        # Plan-constructor errors — a name that does not resolve, a
        # malformed plan document, a spec naming an unknown injection
        # site — are part of the "never raises" contract too: they become
        # a structured ``error`` result rather than a traceback leaking
        # out of the harness mid-campaign.
        smp = harts is not None
        if smp:
            platform = dataclasses.replace(platform, num_harts=harts)
        resolved = resolve_plan(plan, seed=seed)
        result.plan = resolved.name
        result.plan_spec = resolved.to_dict()
        injector = FaultInjector(resolved, seed=seed)
        # Bind the machine before it runs: a run that raises keeps its
        # flight record (trap log, console, watchdog decisions).
        if firmware == "zephyr":
            machine, miralis, run = _zephyr_chaos(
                result, injector, platform, tracer=tracer, coverage=coverage
            )
        else:
            machine, miralis, run = _sbi_chaos(
                result, injector, platform, firmware, tracer=tracer,
                coverage=coverage, smp=smp, quantum=quantum, smp_seed=seed,
                smp_jitter=smp_jitter, phase=phase,
            )
        machine.max_dispatches = CASE_DISPATCH_LIMIT * (harts or 1)
        result.halt_reason = run()
    except Exception as exc:  # noqa: BLE001 — the whole point: no leaks
        result.error = f"{type(exc).__name__}: {exc}"
    if injector is not None:
        result.injections = len(injector.injections)
        result.injection_log = tuple(
            (event.site, event.index, event.detail)
            for event in injector.injections
        )
    if machine is not None:
        result.console = machine.uart.text()
        result.trap_log_total = machine.stats.logged
        result.trap_log = tuple(
            (e.cause, e.is_interrupt, e.handler, e.detail)
            for e in machine.stats.tail(TRAP_LOG_LIMIT)
        )
    if miralis is not None and miralis.watchdog is not None:
        result.recoveries = dict(miralis.watchdog.counters)
        result.hart_recoveries = [
            dict(per_hart) for per_hart in miralis.watchdog.hart_counters
        ]
        result.quarantined = any(miralis.watchdog.quarantined)
        result.quarantine_log = tuple(
            tuple(sorted(record.items()))
            for record in miralis.watchdog.quarantine_records
        )
    return result
