"""Virtual CLINT (§4.3).

The CLINT is the one MMIO device the monitor must emulate: the firmware
uses it for the machine timer and IPIs.  A physical PMP entry blocks the
CLINT region in vM-mode, so firmware accesses fault into Miralis, which
dispatches them here.

The virtual CLINT multiplexes the timer between the monitor and the
virtual firmware: the virtual ``mtimecmp`` is shadowed and the physical
comparator is programmed to the earliest relevant deadline, so the
physical timer interrupt arrives in Miralis, which then injects a virtual
MTI if the *virtual* deadline passed.  ``msip`` writes pass through —
a software interrupt for another hart must really interrupt that hart,
whose own monitor instance virtualizes it.
"""

from __future__ import annotations

from typing import Optional

from repro.core import bugs
from repro.hart import clint as clint_regs
from repro.isa import constants as c
from repro.isa.instructions import Instruction

U64 = (1 << 64) - 1


class VirtualClint:
    """Shadow CLINT state plus the physical-timer multiplexing logic."""

    def __init__(self, machine):
        self.machine = machine
        self.clint = machine.clint
        num_harts = machine.config.num_harts
        #: The deadlines the *virtual firmware* programmed.
        self.mtimecmp = [U64] * num_harts
        #: Deadlines armed by the monitor itself (fast-path set_timer).
        self.monitor_mtimecmp = [U64] * num_harts
        #: The *virtual firmware's* msip view.  Firmware writes land here
        #: and pass through physically; monitor fast-path IPI traffic
        #: touches only the physical CLINT, so the firmware never sees
        #: software interrupts it did not send itself.
        self.msip = [0] * num_harts
        self.accesses = 0

    # -- timer multiplexing ----------------------------------------------

    def program_physical_timer(self, hartid: int) -> None:
        """Install the earliest of the virtual and monitor deadlines."""
        deadline = min(self.mtimecmp[hartid], self.monitor_mtimecmp[hartid])
        self.clint.write(clint_regs.MTIMECMP_BASE + 8 * hartid, 8, deadline)

    def set_monitor_deadline(self, hartid: int, deadline: int) -> None:
        self.monitor_mtimecmp[hartid] = deadline & U64
        self.program_physical_timer(hartid)
        tracer = self.machine.tracer
        if tracer is not None:
            op = "clear-monitor" if deadline & U64 == U64 else "arm-monitor"
            tracer.emit(self.machine, "vclint", hartid,
                        op=op, deadline=deadline & U64)

    def clear_monitor_deadline(self, hartid: int) -> None:
        self.set_monitor_deadline(hartid, U64)

    def virtual_mtip(self, hartid: int, mtime: int) -> bool:
        return mtime >= self.mtimecmp[hartid]

    def virtual_msip(self, hartid: int) -> bool:
        return bool(self.msip[hartid])

    # -- state protocol -----------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "mtimecmp": list(self.mtimecmp),
            "monitor_mtimecmp": list(self.monitor_mtimecmp),
            "msip": list(self.msip),
            "accesses": self.accesses,
        }

    def restore_state(self, state: dict) -> None:
        # Shadows only: the physical CLINT restores its own comparators,
        # so reprogramming the timer here would be redundant (and must not
        # run before the CLINT's lists are consistent).
        self.mtimecmp[:] = state["mtimecmp"]
        self.monitor_mtimecmp[:] = state["monitor_mtimecmp"]
        self.msip[:] = state["msip"]
        self.accesses = state["accesses"]

    def snapshot_hart(self, hartid: int) -> dict:
        """This hart's shadows (a watchdog activation rolls back one hart)."""
        return {
            "mtimecmp": self.mtimecmp[hartid],
            "monitor_mtimecmp": self.monitor_mtimecmp[hartid],
            "msip": self.msip[hartid],
        }

    def restore_hart(self, hartid: int, snap: dict) -> None:
        self.mtimecmp[hartid] = snap["mtimecmp"]
        self.monitor_mtimecmp[hartid] = snap["monitor_mtimecmp"]
        self.msip[hartid] = snap["msip"]
        self.program_physical_timer(hartid)

    # -- MMIO emulation -----------------------------------------------------

    def contains(self, address: int) -> bool:
        return self.clint.base <= address < self.clint.base + self.clint.size

    def emulate_access(
        self,
        hart,
        instr: Instruction,
        address: int,
    ) -> Optional[int]:
        """Emulate a trapped vM-mode access to the CLINT region.

        Returns the loaded value for loads (already written to the
        firmware's rd), or None for stores.  Raises ``ValueError`` for
        accesses outside the register map (re-injected as access faults).
        """
        self.accesses += 1
        offset = address - self.clint.base
        size = instr.memory_size
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(self.machine, "vclint", hart.hartid,
                        op="load" if instr.is_load else "store",
                        offset=offset, size=size)
        if instr.is_load:
            value = self._read(offset, size)
            if instr.mnemonic in ("lb", "lh", "lw") and size < 8:
                sign = 1 << (size * 8 - 1)
                if value & sign:
                    value |= U64 & ~((1 << (size * 8)) - 1)
            hart.state.set_xreg(instr.rd, value)
            return value
        value = hart.state.get_xreg(instr.rs2) & ((1 << (size * 8)) - 1)
        self._write(offset, size, value, hart.hartid)
        return None

    def emulate_os_access(
        self,
        hart,
        instr: Instruction,
        address: int,
    ) -> Optional[str]:
        """Emulate a trapped *OS-world* access to the CLINT region.

        The native firmware's PMP grants S-mode the CLINT, so a native OS
        reads and writes the device directly; under the monitor the region
        is protected and the access faults here instead.  The OS must see
        *native* semantics — the physical device, where one comparator per
        hart serves firmware and OS alike:

        - loads serve the physical registers (``mtime`` from the clock,
          ``msip``/``mtimecmp`` from the device — the comparator holds
          ``min(virtual, monitor)``, exactly the value a native comparator
          would);
        - ``msip`` stores pass through physically, so the IPI or ack is
          architecturally delivered and the usual MSI forwarding paths run;
        - ``mtimecmp`` stores clobber the hart's *whole* deadline state
          (virtual and monitor), as a native store clobbers the single
          physical comparator.

        Returns the register kind accessed ("mtime"/"msip"/"mtimecmp") so
        the caller can retire dependent monitor state (the fast path's
        ``timer_armed`` latch on comparator writes), or ``None`` if the
        instruction is not a plain load/store.  Raises ``ValueError`` or
        ``BusError`` for accesses outside the register map.
        """
        if not (instr.is_load or instr.is_store):
            return None
        self.accesses += 1
        offset = address - self.clint.base
        size = instr.memory_size
        kind, hartid, byte = self._locate(offset, size)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(self.machine, "vclint", hart.hartid,
                        op="os-load" if instr.is_load else "os-store",
                        offset=offset, size=size)
        if instr.is_load:
            value = self.clint.read(offset, size)
            if instr.mnemonic in ("lb", "lh", "lw") and size < 8:
                sign = 1 << (size * 8 - 1)
                if value & sign:
                    value |= U64 & ~((1 << (size * 8)) - 1)
            hart.state.set_xreg(instr.rd, value)
            return kind
        value = hart.state.get_xreg(instr.rs2) & ((1 << (size * 8)) - 1)
        if kind == "mtime":
            self.clint.write(offset, size, value)  # ignored, as natively
            return kind
        if kind == "msip":
            if bugs.is_active("os_ipi_write_dropped"):
                return kind  # seeded hole: the IPI silently vanishes
            # Mirror into the firmware's view before the physical write:
            # the native firmware sees every msip bit regardless of who
            # set it, and the virtual-MSI routing keys on this shadow.
            self.msip[hartid] = value & 1
            self.clint.write(offset, size, value)
            return kind
        # mtimecmp: merge into the *effective* (physical) comparator value,
        # keep the result as the virtual deadline, and retire the monitor
        # deadline — a native store leaves exactly one armed deadline.
        current = self.clint.mtimecmp[hartid]
        mask = ((1 << (8 * size)) - 1) << (8 * byte)
        merged = (current & ~mask) | ((value << (8 * byte)) & mask)
        self.mtimecmp[hartid] = merged & U64
        self.monitor_mtimecmp[hartid] = U64
        self.program_physical_timer(hartid)
        return kind

    def _locate(self, offset: int, size: int) -> tuple[str, int, int]:
        """Map an access onto one register: (kind, hartid, byte offset).

        ``mtime``/``mtimecmp`` are byte-granular (as on the physical
        device); ``msip`` keeps its 32-bit-only access width.  Accesses
        that straddle a register boundary or miss the map fault.
        """
        num_harts = self.machine.config.num_harts
        if clint_regs.MTIME_OFFSET <= offset < clint_regs.MTIME_OFFSET + 8:
            byte = offset - clint_regs.MTIME_OFFSET
            if byte + size <= 8:
                return "mtime", 0, byte
        elif (
            clint_regs.MSIP_BASE <= offset < clint_regs.MSIP_BASE + 4 * num_harts
            and size == 4 and offset % 4 == 0
        ):
            return "msip", (offset - clint_regs.MSIP_BASE) // 4, 0
        elif (
            clint_regs.MTIMECMP_BASE
            <= offset
            < clint_regs.MTIMECMP_BASE + 8 * num_harts
        ):
            byte = (offset - clint_regs.MTIMECMP_BASE) % 8
            if byte + size <= 8:
                return "mtimecmp", (offset - clint_regs.MTIMECMP_BASE) // 8, byte
        raise ValueError(
            f"bad virtual CLINT access: {size}B at offset {offset:#x}"
        )

    def _read(self, offset: int, size: int) -> int:
        kind, hartid, byte = self._locate(offset, size)
        if kind == "mtime":
            register = self.machine.read_mtime()
        elif kind == "msip":
            register = self.msip[hartid]
        else:
            register = self.mtimecmp[hartid]
        return (register >> (8 * byte)) & ((1 << (8 * size)) - 1)

    def _write(self, offset: int, size: int, value: int, from_hart: int) -> None:
        kind, hartid, byte = self._locate(offset, size)
        if kind == "mtime":
            return  # writes to mtime ignored, as on the physical device
        if kind == "msip":
            # Shadow the firmware's view, then pass through: an IPI must
            # physically reach the target hart, whose own monitor
            # instance virtualizes it.
            self.msip[hartid] = value & 1
            self.clint.write(offset, size, value)
            return
        mask = ((1 << (8 * size)) - 1) << (8 * byte)
        merged = (self.mtimecmp[hartid] & ~mask) | ((value << (8 * byte)) & mask)
        self.mtimecmp[hartid] = merged & U64
        self.program_physical_timer(hartid)
