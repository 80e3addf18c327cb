"""Machine simulator: harts, memory, devices, and the dispatch engine."""

from repro.hart.binary import BinaryProgram
from repro.hart.clint import Clint
from repro.hart.cycles import (
    CycleModel,
    GENERIC_CYCLES,
    PREMIER_P550_CYCLES,
    TIMEBASE_FREQUENCY,
    VISIONFIVE2_CYCLES,
    cycle_model_for,
    cycles_to_mtime,
    mtime_to_cycles,
)
from repro.hart.hart import Hart
from repro.hart.machine import HostHandler, Machine
from repro.hart.memory import Ram, SystemBus
from repro.hart.plic import Plic
from repro.hart.program import (
    GuestContext,
    GuestProgram,
    MachineHalted,
    ProtocolError,
    Region,
)
from repro.hart.stats import TrapEvent, TrapStats, cause_name
from repro.hart.uart import Uart

__all__ = [
    "BinaryProgram",
    "Clint",
    "CycleModel",
    "GENERIC_CYCLES",
    "GuestContext",
    "GuestProgram",
    "Hart",
    "HostHandler",
    "Machine",
    "MachineHalted",
    "PREMIER_P550_CYCLES",
    "Plic",
    "ProtocolError",
    "Ram",
    "Region",
    "SystemBus",
    "TIMEBASE_FREQUENCY",
    "TrapEvent",
    "TrapStats",
    "Uart",
    "VISIONFIVE2_CYCLES",
    "cause_name",
    "cycle_model_for",
    "cycles_to_mtime",
    "mtime_to_cycles",
]
