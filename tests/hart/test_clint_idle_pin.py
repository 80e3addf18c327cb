"""Pin of the CLINT register map and of the idle (wfi) decisions.

The physical CLINT and the virtual CLINT serve one SiFive register map,
and three loops decide how far to fast-forward the clock while a hart
waits: the hart's ``wfi``, the SMP scheduler's all-blocked clock jump and
the vM-mode firmware's ``wfi``.  This test drives each of them and hashes
what they do:

- every load and store at 1, 2 and 4 harts and sizes 1, 2, 4 and 8, at
  the offsets around every register boundary and one register past the
  last hart's: the value or exception type, the vCLINT shadows, the
  physical comparators and msip words, and the ``set_mtip``/``set_msip``
  callback log;
- the halt reason, exception and ``machine.cycles`` of each idle
  scenario below.

The digests were recorded before the two CLINT decoders and the three
idle loops were folded into one each, so a change of behaviour shows
here even where no unit test looks.  The stale-deadline case (the
earliest deadline already passed or reached on the way, a later one
still armed) is left out: it halted before and wakes now
(``tests/integration/test_wfi_stale_deadline.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.core.config import MiralisConfig
from repro.hart import clint as clint_regs
from repro.hart.machine import Machine
from repro.hart.program import (
    FirmwareRecovered,
    GuestProgram,
    MachineHalted,
    Region,
)
from repro.isa import constants as c
from repro.isa.instructions import Instruction
from repro.smp import SmpScheduler
from repro.spec.platform import RVA23_MACHINE, VISIONFIVE2
from repro.system import build_virtualized

U64 = (1 << 64) - 1
HART_COUNTS = (1, 2, 4)
SIZES = (1, 2, 4, 8)
LOADS = {1: "lb", 2: "lh", 4: "lw", 8: "ld"}
STORES = {1: "sb", 2: "sh", 4: "sw", 8: "sd"}
#: Stored in turn (masked to the access width): a deadline in the past,
#: one far ahead, a pattern and all ones.
VALUES = (0, 0x0123_4567_89AB_CDEF, 0x8000_0000_0000_0001, U64)
#: Cycles charged between accesses, so levels rise as time passes.
STEP_CYCLES = 997

#: sha256 of each transcript, recorded before the refactor.
CLINT_DIGEST = "97a8f94f63bb9dfeb73039072c64d167877a6886ec3e80a0e0854ff59b53a497"
VCLINT_DIGEST = "74794b71382844c3ee33fae03642f8eca2c164ebe882f74ee21ffcdef57a6ce0"
IDLE_DIGEST = "37b6ab697eeba62e00b295fe4286d0f894e26d4ff6aed243d680874f8f863c2f"


def _offsets(num_harts: int) -> list[int]:
    """Each register start and the bytes around it, for every msip and
    mtimecmp register plus one past the last hart's, and for mtime."""
    offsets = set()
    for base, stride, count in (
        (clint_regs.MSIP_BASE, 4, num_harts + 1),
        (clint_regs.MTIMECMP_BASE, 8, num_harts + 1),
        (clint_regs.MTIME_OFFSET, 8, 2),
    ):
        for index in range(count):
            start = base + stride * index
            for delta in (-1, 0, 1, 2, 4, stride - 1):
                offsets.add(start + delta)
    return sorted(offset for offset in offsets if offset >= 0)


def _platform(num_harts: int):
    return dataclasses.replace(VISIONFIVE2, num_harts=num_harts)


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 — the type is the outcome
        return type(exc).__name__


def _wire_log(machine) -> list:
    """Log every ``set_mtip``/``set_msip`` callback of the machine's CLINT."""
    log = []
    clint = machine.clint
    wired_mtip, wired_msip = clint._set_mtip, clint._set_msip

    def set_mtip(hart, level):
        log.append(("mtip", hart, level))
        wired_mtip(hart, level)

    def set_msip(hart, level):
        log.append(("msip", hart, level))
        wired_msip(hart, level)

    clint._set_mtip, clint._set_msip = set_mtip, set_msip
    return log


def clint_transcript(num_harts: int) -> str:
    machine = Machine(_platform(num_harts))
    machine.charge(STEP_CYCLES)
    clint = machine.clint
    log = _wire_log(machine)
    parts = []
    step = 0
    for offset in _offsets(num_harts):
        for size in SIZES:
            value = VALUES[step % len(VALUES)] & ((1 << (8 * size)) - 1)
            step += 1
            parts.append(f"{offset:#x}/{size}")
            parts.append(_outcome(clint.read, offset, size))
            parts.append(_outcome(clint.write, offset, size, value))
            parts.append(_outcome(clint.read, offset, size))
            parts.append(repr((clint.mtimecmp, clint.msip, log)))
            log.clear()
            machine.charge(STEP_CYCLES)
            clint.tick()
            parts.append(repr(log))
            log.clear()
    return " ".join(parts)


def _vclint_state(vclint) -> str:
    return repr((vclint.mtimecmp, vclint.monitor_mtimecmp, vclint.timer_armed,
                 vclint.msip, vclint.clint.mtimecmp, vclint.clint.msip))


def vclint_transcript(num_harts: int) -> str:
    system = build_virtualized(_platform(num_harts))
    machine = system.machine
    machine.charge(STEP_CYCLES)
    vclint = system.miralis.vclint
    hart = machine.harts[0]
    base = machine.clint.base
    log = _wire_log(machine)
    parts = []
    step = 0
    for offset in _offsets(num_harts):
        for size in SIZES:
            value = VALUES[step % len(VALUES)]
            step += 1
            # A monitor deadline on every hart, so an OS store merges
            # into a physical comparator the virtual one does not hold.
            for hartid in range(num_harts):
                vclint.set_monitor_deadline(hartid, 50_000 + step)
            log.clear()
            hart.state.set_xreg(6, value)
            load = Instruction(LOADS[size], rd=5)
            store = Instruction(STORES[size], rs1=0, rs2=6)
            parts.append(f"{offset:#x}/{size}")
            for emulate in (vclint.emulate_access, vclint.emulate_os_access):
                for instr in (load, store, load):
                    parts.append(_outcome(emulate, hart, instr, base + offset))
                    parts.append(_vclint_state(vclint))
                parts.append(repr(log))
                log.clear()
                hart.state.set_xreg(6, value ^ U64)
            machine.charge(STEP_CYCLES)
    parts.append(repr(vclint.accesses))
    return " ".join(parts)


class _IdleProgram(GuestProgram):
    """Hart 0 arms ``deadline`` (if any), waits in wfi until it fires,
    disarms it and waits again with nothing armed."""

    def __init__(self, machine, deadline):
        super().__init__("idle", Region("idle", 0x8000_0000, 0x10_0000))
        self.machine = machine
        self.deadline = deadline

    def boot(self, ctx):
        ctx.csrw(c.CSR_MTVEC, self.trap_vector)
        if self.deadline is not None:
            now = ctx.load(self.machine.clint.mtime_address, size=8)
            ctx.store(self.machine.clint.mtimecmp_address(0),
                      now + self.deadline, size=8)
            ctx.csrw(c.CSR_MIE, c.MIP_MTIP)
            ctx.csrs(c.CSR_MSTATUS, c.MSTATUS_MIE)
        ctx.wfi()
        ctx.wfi()
        self.machine.halt("idle program returned")

    def handle_trap(self, ctx):
        ctx.store(self.machine.clint.mtimecmp_address(0), U64, size=8)
        ctx.mret()


def _run(fn) -> str:
    try:
        result = fn()
    except (MachineHalted, FirmwareRecovered) as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"returned {result!r}"


def _hart_wfi(config, setup) -> str:
    machine = Machine(config)
    machine.charge(10_000)
    hart = machine.harts[0]
    setup(machine, hart.state.csr)
    hart.state.waiting_for_interrupt = True
    outcome = _run(lambda: machine.advance_until_interrupt(hart))
    return repr((outcome, machine.halt_reason, machine.cycles,
                 hart.state.waiting_for_interrupt))


def _smp_idle(num_harts: int, deadline) -> str:
    machine = Machine(_platform(num_harts))
    program = _IdleProgram(machine, deadline)
    machine.register(program)
    reason = SmpScheduler(machine).boot(entry=program.entry_point)
    return repr((reason, machine.cycles))


def _firmware_wfi(watchdog: bool, virtual, monitor) -> str:
    system = build_virtualized(
        miralis_config=MiralisConfig(watchdog_enabled=watchdog))
    machine = system.machine
    machine.charge(10_000)
    miralis = system.miralis
    hart, vctx = machine.harts[0], miralis.vctx[0]
    now = machine.read_mtime()
    vctx.mie = c.MIP_MTIP
    miralis.vclint.mtimecmp[0] = U64 if virtual is None else now + virtual
    miralis.vclint.monitor_mtimecmp[0] = U64 if monitor is None else now + monitor
    outcome = _run(lambda: miralis._firmware_wfi(hart, vctx))
    return repr((outcome, machine.halt_reason, machine.cycles, vctx.mip))


def _mtimecmp(delta, enables=c.MIP_MTIP):
    def setup(machine, csr):
        csr.mie = enables
        machine.clint.mtimecmp[0] = (
            U64 if delta is None else max(0, machine.read_mtime() + delta))
    return setup


def _stimecmp(delta):
    def setup(machine, csr):
        csr.menvcfg |= c.MENVCFG_STCE
        csr.mie = c.MIP_STIP
        csr.stimecmp = max(0, machine.read_mtime() + delta)
    return setup


def idle_transcript() -> str:
    scenarios = [
        ("hart wfi, nothing armed", lambda: _hart_wfi(VISIONFIVE2, _mtimecmp(None))),
        ("hart wfi, passed enabled deadline",
         lambda: _hart_wfi(VISIONFIVE2, _mtimecmp(-5))),
        ("hart wfi, future deadline", lambda: _hart_wfi(VISIONFIVE2, _mtimecmp(1000))),
        ("hart wfi, enabled deadline now", lambda: _hart_wfi(VISIONFIVE2, _mtimecmp(0))),
        ("hart wfi, passed disabled deadline",
         lambda: _hart_wfi(VISIONFIVE2, _mtimecmp(-5, c.MIP_MSIP))),
        ("hart wfi, disabled deadline now",
         lambda: _hart_wfi(VISIONFIVE2, _mtimecmp(0, c.MIP_MSIP))),
        ("hart wfi, future stimecmp", lambda: _hart_wfi(RVA23_MACHINE, _stimecmp(700))),
        ("hart wfi, passed stimecmp", lambda: _hart_wfi(RVA23_MACHINE, _stimecmp(-3))),
    ]
    for harts in HART_COUNTS:
        scenarios.append((f"smp deadlock at {harts}", lambda h=harts: _smp_idle(h, None)))
        scenarios.append((f"smp timer then deadlock at {harts}",
                          lambda h=harts: _smp_idle(h, 800)))
    for watchdog in (False, True):
        for virtual, monitor in ((None, None), (1000, None), (None, 400),
                                 (None, -5), (400, 1000)):
            scenarios.append((
                f"vM wfi watchdog={watchdog} virtual={virtual} monitor={monitor}",
                lambda w=watchdog, v=virtual, m=monitor: _firmware_wfi(w, v, m)))
    return "\n".join(f"{name}: {run()}" for name, run in scenarios)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_physical_clint_register_map_is_pinned():
    assert _digest("\n".join(clint_transcript(n) for n in HART_COUNTS)) == CLINT_DIGEST


def test_virtual_clint_register_map_is_pinned():
    assert _digest("\n".join(vclint_transcript(n) for n in HART_COUNTS)) == VCLINT_DIGEST


def test_idle_decisions_are_pinned():
    assert _digest(idle_transcript()) == IDLE_DIGEST
