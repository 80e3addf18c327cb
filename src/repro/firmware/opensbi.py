"""OpenSBI-like vendor firmware.

Models the two vendor firmware images of §8.2 — both VisionFive 2 and
Premier P550 ship OpenSBI-based second-stage firmware — including the
vendor-specific additions on top of the generic core: platform bring-up,
vendor CSRs (the P550's speculation-control registers), and telemetry
written into the firmware's own memory region.
"""

from __future__ import annotations

from repro.firmware.base import BaseFirmware
from repro.hart.program import GuestContext
from repro.isa import constants as c
from repro.sbi import constants as sbi

# The P550 exposes four non-standard but documented CSRs for speculation
# control and error reporting (§8.2); Miralis must be configured to allow
# writes to them on that platform.
P550_VENDOR_CSRS = (0x7C0, 0x7C1, 0x7C2, 0x7C3)


class OpenSbiFirmware(BaseFirmware):
    """Generic OpenSBI-style firmware (the open core, no vendor additions)."""

    IMPL_ID = sbi.IMPL_ID_OPENSBI
    IMPL_VERSION = 0x10004  # OpenSBI 1.4
    BANNER = "OpenSBI v1.4"
    # OpenSBI's generic trap entry saves all GPRs and routes through
    # several indirect calls (§8.3.1 attributes its slight slowness to
    # exactly this).
    TRAP_PROLOGUE_INSTRUCTIONS = 110
    TRAP_EPILOGUE_INSTRUCTIONS = 90

    def platform_init(self, ctx: GuestContext, hartid: int) -> None:
        # Generic platform scan: probe CLINT and UART.
        ctx.load(self.machine.clint.mtime_address, size=8)
        ctx.load(self.machine.uart.base + 0x05, size=1)


class VisionFive2Firmware(OpenSbiFirmware):
    """The VisionFive 2 vendor firmware: OpenSBI core + StarFive additions.

    The platform lacks a hardware ``time`` CSR, Sstc, and misaligned
    access support, so this firmware's emulation paths (inherited from the
    base) are exercised at the high rates Figure 3 reports.
    """

    BANNER = "OpenSBI v1.2 (StarFive VisionFive 2)"
    IMPL_VERSION = 0x10002
    BOOT_INIT_INSTRUCTIONS = 40_000  # DDR training handoff, clock tree, PLLs

    def platform_init(self, ctx: GuestContext, hartid: int) -> None:
        super().platform_init(ctx, hartid)
        # StarFive clock/pinmux bring-up, modelled as plain computation
        # plus a burst of device pokes into vendor MMIO (the UART here,
        # standing in for the clock controller the board exposes).
        ctx.compute(5_000)
        for _ in range(4):
            ctx.load(self.machine.uart.base + 0x05, size=1)


class PremierP550Firmware(OpenSbiFirmware):
    """The HiFive Premier P550 vendor firmware: OpenSBI core + ESWIN additions.

    The P550 handles misaligned accesses in hardware, so only timer / IPI /
    time-read emulation remains hot.  The vendor code additionally programs
    four documented speculation-control CSRs at boot — the accesses §8.2
    notes Miralis must explicitly allow on this platform.
    """

    BANNER = "OpenSBI v1.4 (ESWIN Premier P550)"
    BOOT_INIT_INSTRUCTIONS = 30_000

    def platform_init(self, ctx: GuestContext, hartid: int) -> None:
        super().platform_init(ctx, hartid)
        ctx.compute(3_000)
        for csr in P550_VENDOR_CSRS:
            # Speculation-control / error-report configuration.  On the
            # real board these CSRs exist in hardware; under Miralis the
            # write traps and is forwarded only if the platform config
            # allow-lists it (§8.2).
            ctx.csrw(csr, 0x1)
