"""A tiny 16550-style UART: transmit-only console plus status register.

Exists so the boot flow has a real console device (early printk via SBI in
the paper's sandbox discussion) and so policies have a harmless MMIO region
they may choose to leave accessible to firmware.
"""

from __future__ import annotations

from repro.spec.step import BusError

RBR_THR = 0x00  # transmit holding register (write)
LSR = 0x05  # line status register
LSR_THRE = 0x20  # transmit holding register empty
LSR_TEMT = 0x40  # transmitter empty
UART_SIZE = 0x100


class Uart:
    """Transmit-only UART that accumulates console output in a buffer."""

    def __init__(self, base: int):
        self.base = base
        self.size = UART_SIZE
        self.output = bytearray()
        #: Fault-injection hook: ``hook(kind, offset, size) -> bool``;
        #: True makes the access fail with a transient bus error.
        self.fault_hook = None

    def read(self, offset: int, size: int) -> int:
        if self.fault_hook is not None and self.fault_hook("read", offset, size):
            raise BusError(f"uart: transient bus fault reading offset {offset:#x}")
        if size != 1:
            raise BusError(f"UART requires byte accesses, got {size}")
        if offset == LSR:
            return LSR_THRE | LSR_TEMT  # always ready
        if offset == RBR_THR:
            return 0  # no receive path modelled
        return 0

    def write(self, offset: int, size: int, value: int) -> None:
        if self.fault_hook is not None and self.fault_hook("write", offset, size):
            raise BusError(f"uart: transient bus fault writing offset {offset:#x}")
        if size != 1:
            raise BusError(f"UART requires byte accesses, got {size}")
        if offset == RBR_THR:
            self.output.append(value & 0xFF)

    def text(self) -> str:
        """Console output decoded as text."""
        return self.output.decode("utf-8", errors="replace")

    def snapshot_state(self) -> dict:
        return {"output": bytearray(self.output)}

    def restore_state(self, state: dict) -> None:
        self.output[:] = state["output"]
