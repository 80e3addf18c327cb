"""Machine state: the ``s`` in the paper's ``hw : C x S x I -> S``.

A :class:`MachineState` bundles the general-purpose registers, program
counter, privilege mode, and the CSR file.  It is used both directly by the
hart simulator and, copied, by the verification harness.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.isa.bits import to_u64
from repro.isa.constants import M_MODE, PrivilegeLevel
from repro.spec.csrs import CsrFile
from repro.spec.platform import PlatformConfig


class MachineState:
    """Architectural state of one hart."""

    def __init__(
        self,
        config: PlatformConfig,
        hartid: int = 0,
        time_source: Optional[Callable[[], int]] = None,
    ):
        self.config = config
        self.hartid = hartid
        self._xregs = [0] * 32
        self.pc = config.ram_base
        self.mode: PrivilegeLevel = M_MODE
        self.csr = CsrFile(config, hartid=hartid, time_source=time_source)
        self.waiting_for_interrupt = False
        # Reservation for LR/SC would live here; atomics are not modelled.

    # -- general purpose registers (x0 pinned to zero) -------------------

    def get_xreg(self, index: int) -> int:
        if not 0 <= index <= 31:
            raise IndexError(f"register x{index} out of range")
        return self._xregs[index]

    def set_xreg(self, index: int, value: int) -> None:
        if not 0 <= index <= 31:
            raise IndexError(f"register x{index} out of range")
        if index != 0:
            self._xregs[index] = to_u64(value)

    @property
    def xregs(self) -> list[int]:
        """A copy of the register file (x0 included)."""
        return list(self._xregs)

    def load_xregs(self, values: list[int]) -> None:
        if len(values) != 32:
            raise ValueError("expected 32 register values")
        self._xregs = [0] + [to_u64(v) for v in values[1:]]

    # -- state protocol (checkpoints, verification harness) --------------

    def snapshot_state(self) -> dict:
        return {
            "xregs": list(self._xregs),
            "pc": self.pc,
            "mode": self.mode,
            "waiting": self.waiting_for_interrupt,
            "csr": self.csr.snapshot_state(),
        }

    def restore_state(self, snap: dict) -> None:
        self._xregs = list(snap["xregs"])
        self.pc = snap["pc"]
        self.mode = snap["mode"]
        self.waiting_for_interrupt = snap["waiting"]
        self.csr.restore_state(snap["csr"])

    def __repr__(self) -> str:
        return (
            f"<MachineState hart={self.hartid} pc={self.pc:#x} "
            f"mode={self.mode.short_name}>"
        )
