"""Platform configuration: the ``c`` in the paper's ``hw : C x S x I -> S``.

A :class:`PlatformConfig` captures everything about a machine that is fixed
at design time: number of PMP entries, implemented extensions, whether the
``time`` CSR reads from real hardware or must be emulated by firmware, and
whether misaligned accesses are handled in hardware.  These last two knobs
are exactly the ones §3.4 of the paper identifies as the source of 99.98%
of OS-to-firmware traps on the VisionFive 2.
"""

from __future__ import annotations

import dataclasses

from repro.isa.constants import MISA_DEFAULT, MISA_H


@dataclasses.dataclass(frozen=True)
class PlatformConfig:
    """Design-time machine configuration.

    Attributes:
        name: Human-readable platform name.
        pmp_count: Number of implemented PMP entries (0, 16, or 64 per spec;
            8 is common in practice and used by Figure 5 of the paper).
        misa: Value of the ``misa`` CSR (implemented extensions).
        has_sstc: Whether the Sstc extension (``stimecmp``) is implemented.
        has_hw_time_csr: Whether reading the ``time`` CSR works in hardware.
            When false, ``time`` reads raise illegal-instruction and must be
            emulated by M-mode firmware (or the VFM fast path).
        has_hw_misaligned: Whether misaligned loads/stores complete in
            hardware.  When false they raise address-misaligned exceptions
            that firmware traditionally emulates.
        num_harts: Number of harts on the platform.
        frequency_hz: Core frequency, used by the cycle cost model.
        ram_bytes: Physical memory size.
        ram_base: Base physical address of RAM.
        clint_base: Base address of the CLINT MMIO region.
        plic_base: Base address of the PLIC MMIO region.
        uart_base: Base address of the UART MMIO region.
        mvendorid/marchid/mimpid: Machine identification registers.
    """

    name: str = "generic-rv64"
    pmp_count: int = 8
    misa: int = MISA_DEFAULT
    has_sstc: bool = False
    has_hw_time_csr: bool = False
    has_hw_misaligned: bool = False
    num_harts: int = 1
    frequency_hz: int = 1_000_000_000
    ram_base: int = 0x8000_0000
    # Default covers the canonical region layout (enclave/CVM regions end
    # at RAM base + 0x0900_0000; see repro.system).
    ram_bytes: int = 256 * 1024 * 1024
    clint_base: int = 0x0200_0000
    plic_base: int = 0x0C00_0000
    uart_base: int = 0x1000_0000
    mvendorid: int = 0
    marchid: int = 0
    mimpid: int = 0
    #: Documented vendor-specific M-mode CSRs implemented by the platform
    #: (e.g. the P550's speculation-control registers, §8.2).
    vendor_csrs: tuple = ()
    #: Hard-wire mideleg's S-level bits to 1 (WARL).  Real silicon may do
    #: this, and Miralis's *virtual* platform always does (§4.3) — this is
    #: one of the "different configuration" knobs of Definition 1's ∃c.
    mideleg_hardwired: bool = False

    def __post_init__(self) -> None:
        if self.pmp_count < 0 or self.pmp_count > 64:
            raise ValueError(f"pmp_count must be in [0, 64], got {self.pmp_count}")
        if self.num_harts < 1:
            raise ValueError("num_harts must be >= 1")

    @property
    def has_h_extension(self) -> bool:
        return bool(self.misa & MISA_H)

    def with_overrides(self, **kwargs) -> "PlatformConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


# ---------------------------------------------------------------------------
# The two evaluation platforms of the paper (Table 3), plus a reference
# machine with every optional feature implemented (an RVA23-profile-like
# machine, used for the Sstc ablation of §8.3.3).
# ---------------------------------------------------------------------------

VISIONFIVE2 = PlatformConfig(
    name="visionfive2",
    pmp_count=8,
    num_harts=4,
    frequency_hz=1_500_000_000,
    ram_bytes=4 * 1024 * 1024 * 1024,
    has_sstc=False,
    has_hw_time_csr=False,
    has_hw_misaligned=False,
    mvendorid=0x489,  # SiFive JEDEC id (U74 cores)
    marchid=0x8000000000000007,
)

PREMIER_P550 = PlatformConfig(
    name="premier-p550",
    pmp_count=8,
    num_harts=4,
    frequency_hz=1_800_000_000,
    ram_bytes=16 * 1024 * 1024 * 1024,
    has_sstc=False,
    has_hw_time_csr=False,
    has_hw_misaligned=True,  # P550 handles misaligned accesses in hardware
    misa=MISA_DEFAULT | MISA_H,  # the P550 implements the H extension
    mvendorid=0x710,
    marchid=0x8000000000000008,
    vendor_csrs=(0x7C0, 0x7C1, 0x7C2, 0x7C3),
)

RVA23_MACHINE = PlatformConfig(
    name="rva23-reference",
    pmp_count=16,
    num_harts=4,
    frequency_hz=2_000_000_000,
    has_sstc=True,
    has_hw_time_csr=True,
    has_hw_misaligned=True,
    misa=MISA_DEFAULT | MISA_H,
)

QEMU_VIRT = PlatformConfig(
    name="qemu-virt",
    pmp_count=16,
    num_harts=2,
    frequency_hz=1_000_000_000,
    has_sstc=False,
    has_hw_time_csr=False,
    has_hw_misaligned=True,
    misa=MISA_DEFAULT | MISA_H,
)

PLATFORMS = {
    platform.name: platform
    for platform in (VISIONFIVE2, PREMIER_P550, RVA23_MACHINE, QEMU_VIRT)
}
