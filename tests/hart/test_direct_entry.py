"""Direct monitor entry: ``run_until`` dispatches a host handler itself.

A trap whose vector a host handler owns (the monitor) is handed by
``GuestContext.exec`` to ``run_until``, which calls the handler directly
instead of going through ``dispatch_current``.  Everything the loop and
``dispatch_current`` did for that dispatch must still happen: the halt
check, the unwind to an outer resume point, the dispatch count and its
limit, ``FirmwareRecovered`` as "continue from the recovered pc", and a
pushed resume level so the machine is not quiescent while the handler
runs.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.runner import build_system
from repro.hart.machine import Machine
from repro.hart.program import (
    FirmwareRecovered,
    GuestProgram,
    ProtocolError,
    Region,
)
from repro.isa import constants as c
from repro.os_model.workloads import MEMCACHED
from repro.spec.platform import VISIONFIVE2

MONITOR = Region("monitor", 0x8000_0000, 0x1_0000)
OS = Region("os", 0x8010_0000, 0x2_0000)
ENCLAVE = Region("enclave", 0x8020_0000, 0x2_0000)
RECOVERY = Region("recovery", 0x8030_0000, 0x2_0000)


class Monitor:
    """A host handler running ``action(machine, hart)`` per trap."""

    name = "monitor"
    region = MONITOR

    def __init__(self, action):
        self.action = action
        self.quiescent: list[bool] = []

    def handle(self, machine, hart) -> None:
        self.quiescent.append(machine.quiescent)
        self.action(machine, hart)


class Script(GuestProgram):
    """A guest program whose boot is a Python callable."""

    def __init__(self, name, region, body):
        super().__init__(name, region)
        self.body = body

    def boot(self, ctx) -> None:
        self.body(ctx)


def _past_ecall(machine, hart) -> None:
    """The common monitor case: emulate and return past the instruction."""
    hart.state.pc = hart.state.csr.mepc + 4


def _machine(action, *programs):
    machine = Machine(VISIONFIVE2)
    monitor = Monitor(action)
    machine.register(monitor)
    for program in programs:
        machine.register(program)
    machine.harts[0].state.csr.mtvec = MONITOR.base
    return machine, monitor


class TestDirectEntry:
    def test_one_dispatch_per_trap_and_not_quiescent_inside(self):
        log = []

        def body(ctx):
            for _ in range(3):
                ctx.ecall()
                log.append("after")
            ctx.machine.halt("done")

        machine, monitor = _machine(_past_ecall, Script("os", OS, body))
        assert machine.boot(entry=OS.base) == "done"
        assert log == ["after"] * 3
        assert monitor.quiescent == [False] * 3
        assert machine.quiescent
        # The boot dispatch plus one per trap.
        assert machine.dispatches == 4

    def test_redirect_to_an_outer_resume_point_unwinds(self):
        """A Keystone-style suspend: the monitor returns control to the
        OS's ``run_enclave`` call site, abandoning the enclave's stream."""
        log = []
        resume = OS.base + 0x40

        def os_body(ctx):
            ctx.hart.state.pc = ENCLAVE.base
            ctx.machine.run_until(ctx.hart, {resume})
            log.append("os resumed")
            ctx.machine.halt("done")

        def enclave_body(ctx):
            log.append("enclave")
            ctx.ecall()
            log.append("enclave after ecall")  # never reached

        def suspend(machine, hart):
            hart.state.pc = resume

        machine, monitor = _machine(
            suspend, Script("os", OS, os_body),
            Script("enclave", ENCLAVE, enclave_body),
        )
        assert machine.boot(entry=OS.base) == "done"
        assert log == ["enclave", "os resumed"]
        assert monitor.quiescent == [False]
        assert machine.quiescent

    def test_firmware_recovered_continues_from_the_recovered_pc(self):
        log = []
        resume_at = {}

        def os_body(ctx):
            resume_at["pc"] = ctx.hart.state.pc + 4
            ctx.ecall()
            log.append("os after ecall")
            ctx.ecall()
            log.append("os after second ecall")
            ctx.machine.halt("done")

        def recovery_body(ctx):
            log.append("recovery")
            ctx.hart.state.pc = resume_at["pc"]

        calls = []

        def recover(machine, hart):
            calls.append(hart.state.csr.mepc)
            if len(calls) == 1:
                # Abandon the handler's frames; control is elsewhere.
                hart.state.pc = RECOVERY.base
            else:
                _past_ecall(machine, hart)
            raise FirmwareRecovered("test")

        machine, _ = _machine(
            recover, Script("os", OS, os_body),
            Script("recovery", RECOVERY, recovery_body),
        )
        assert machine.boot(entry=OS.base) == "done"
        assert log == ["recovery", "os after ecall", "os after second ecall"]
        # boot + two traps + the recovery program's dispatch.
        assert machine.dispatches == 4

    @pytest.mark.parametrize("returns", [True, False])
    def test_halt_inside_the_handler(self, returns):
        log = []

        def os_body(ctx):
            ctx.ecall()
            log.append("after ecall")
            ctx.ecall()
            log.append("unreachable")

        def halt(machine, hart):
            machine.halt("monitor halted")
            if returns:
                _past_ecall(machine, hart)
            else:
                hart.state.pc = RECOVERY.base  # control never comes back

        machine, _ = _machine(halt, Script("os", OS, os_body))
        assert machine.boot(entry=OS.base) == "monitor halted"
        assert log == (["after ecall"] if returns else [])
        assert machine.quiescent

    def test_interrupt_delivery_takes_the_same_lane(self):
        log = []

        def os_body(ctx):
            csr = ctx.hart.state.csr
            csr.mie = c.MIP_MSIP
            csr.mstatus |= c.MSTATUS_MIE
            ctx.machine.clint.write(0, 4, 1)  # raise msip
            ctx.fence()
            log.append("after fence")
            ctx.machine.halt("done")

        def ack(machine, hart):
            log.append(hart.state.csr.mcause)
            machine.clint.write(0, 4, 0)
            hart.state.pc = hart.state.csr.mepc  # resume at the fence

        machine, monitor = _machine(ack, Script("os", OS, os_body))
        assert machine.boot(entry=OS.base) == "done"
        assert log == [c.INTERRUPT_BIT | c.IRQ_MSI, "after fence"]
        assert monitor.quiescent == [False]


# -- the dispatch limit trips where it did before direct entry ----------


def _memcached(kernel, ctx) -> None:
    kinds, weights = zip(*MEMCACHED.weights())
    stream = random.Random(5).choices(kinds, weights=weights, k=400)
    misaligned = kernel.region.base + 0x8000 + 1
    for kind in stream:
        ctx.compute(2_000)
        if kind == "time":
            kernel.read_time(ctx)
        elif kind == "timer":
            kernel.arm_timer_tick(ctx)
        elif kind == "ipi":
            kernel.sbi_send_ipi(ctx, 1, 0)
        elif kind == "rfence":
            kernel.sbi_remote_fence_i(ctx, 1, 0)
        else:
            ctx.load(misaligned, size=4)


def trip(configuration: str, limit: int) -> tuple:
    """Run until the dispatch limit trips; the simulated state there."""
    system = build_system(configuration, VISIONFIVE2, _memcached)
    machine = system.machine
    machine.max_dispatches = limit
    with pytest.raises(ProtocolError, match="dispatch limit exceeded"):
        system.run()
    return (machine.dispatches, machine.stats.total_traps,
            repr(machine.cycles), machine.harts[0].state.pc)


#: (configuration, max_dispatches) -> (dispatches, traps, cycles, pc) at
#: the trip, recorded before direct entry existed (``run_until`` for every
#: trap).  Native runs never take the direct lane; the others mostly do.
TRIPS = {
    ("native", 300): (301, 299, "571897.0", 0x8000_0100),
    ("miralis", 450): (451, 443, "747812.0", 0x8020_0000),
    ("miralis-no-offload", 1000): (1001, 875, "750989.0", 0x8020_0000),
    ("miralis-no-offload", 3333): (3334, 2918, "2454608.0", 0x8000_0100),
}


@pytest.mark.parametrize("configuration,limit", sorted(TRIPS))
def test_dispatch_limit_trips_at_the_same_point(configuration, limit):
    assert trip(configuration, limit) == TRIPS[configuration, limit]
