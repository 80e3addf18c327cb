"""VirtContext: the shadow copy of the virtualized hart state.

Holds the virtual M-mode (and S-mode) CSRs the deprivileged firmware
operates on.  §4.1: "Miralis maintains a shadow copy of the CSRs on which
the instruction emulator operates.  Those virtual CSRs are never installed
in the physical registers while the virtual firmware is executing."

This is deliberately an *independent* representation from the reference
specification's CSR file (:mod:`repro.spec.csrs`) — named fields, emulator
-style layout — because the whole point of the verification harness is to
check the two implementations against each other (faithful emulation,
Definition 1).
"""

from __future__ import annotations

import enum

from repro.core.csr_emul import virtual_csr_table
from repro.isa import constants as c


class World(enum.Enum):
    """Which world the hart currently executes in (Figure 4)."""

    FIRMWARE = "vM-mode"
    OS = "direct"


#: VirtContext fields that are wiring, not state: never captured, and
#: left as they are by a restore (a retried activation keeps its
#: injector hook; the CSR table is a function of the platform).
WIRING = ("platform", "hartid", "csr_write_hook", "csr_table")
#: The container-valued fields (lists and dicts of ints); every other
#: state field holds an immutable value.
CONTAINERS = ("pmpcfg", "pmpaddr", "vendor", "h_csrs")


class VirtContext:
    """Virtual hart state: shadow CSRs plus the virtual privilege mode."""

    def __init__(self, config, hartid: int = 0):
        self.platform = config
        self.hartid = hartid
        #: Every virtual CSR's reader and writer (:mod:`repro.core.csr_emul`).
        self.csr_table = virtual_csr_table(config)
        #: The firmware's virtual privilege mode: M while the firmware
        #: executes in vM-mode; S or U after a virtual mret into the OS.
        self.virtual_mode: c.PrivilegeLevel = c.M_MODE
        #: Number of PMP entries the virtual platform exposes (smaller than
        #: the physical count: Miralis reserves entries, §4.2).  The
        #: monitor overwrites this at init.
        self.virtual_pmp_count = config.pmp_count
        #: Fault-injection hook: ``hook(csr, value) -> value`` consulted by
        #: the emulator before each virtual CSR write.  Not part of the
        #: architectural state (excluded from snapshots).
        self.csr_write_hook = None

        # Virtual machine-level CSRs.
        self.mstatus = (c.XL_64 << 32) | (c.XL_64 << 34) | (3 << c.MSTATUS_MPP_SHIFT)
        self.misa = config.misa
        self.medeleg = 0
        # §4.3: delegation of all non-M interrupts is hard-wired on.
        self.mideleg = c.MIDELEG_MASK
        self.mie = 0
        self.mip = 0
        self.mtvec = 0
        self.mcounteren = 0
        self.mcountinhibit = 0
        self.menvcfg = 0
        self.mscratch = 0
        self.mepc = 0
        self.mcause = 0
        self.mtval = 0
        self.mcycle = 0
        self.minstret = 0

        # Virtual supervisor-level CSRs (installed physically while the OS
        # runs; shadowed here while the firmware runs).
        self.stvec = 0
        self.scounteren = 0
        self.senvcfg = 0
        self.sscratch = 0
        self.sepc = 0
        self.scause = 0
        self.stval = 0
        self.satp = 0
        self.stimecmp = (1 << 64) - 1

        # Virtual PMP registers (one cfg byte per entry).
        self.pmpcfg = [0] * 64
        self.pmpaddr = [0] * 64

        # Vendor CSRs (allow-listed per platform).
        self.vendor = {csr: 0 for csr in config.vendor_csrs}

        # Hypervisor-extension shadows (present iff misa.H): saved and
        # restored on world switches, per §5.4.
        self.h_csrs: dict[int, int] = {}
        if config.has_h_extension:
            self.h_csrs = {
                addr: 0
                for addr in (
                    c.CSR_HEDELEG, c.CSR_HIDELEG, c.CSR_HIE,
                    c.CSR_HIP, c.CSR_HVIP, c.CSR_HCOUNTEREN, c.CSR_HGEIE,
                    c.CSR_HTVAL, c.CSR_HTINST, c.CSR_HGATP,
                    c.CSR_VSIE, c.CSR_VSTVEC, c.CSR_VSSCRATCH,
                    c.CSR_VSEPC, c.CSR_VSCAUSE, c.CSR_VSTVAL, c.CSR_VSIP,
                    c.CSR_VSATP, c.CSR_MTINST, c.CSR_MTVAL2,
                )
            }
            # Architectural reset values: VSXL/UXL report 64-bit.
            self.h_csrs[c.CSR_HSTATUS] = 0x2 << 32
            self.h_csrs[c.CSR_VSSTATUS] = c.XL_64 << 32

    # -- derived views ------------------------------------------------------

    @property
    def sstatus(self) -> int:
        return self.mstatus & c.SSTATUS_MASK

    @property
    def sie(self) -> int:
        return self.mie & self.mideleg & c.SIP_MASK

    @property
    def sip(self) -> int:
        return self.mip & self.mideleg & c.SIP_MASK

    # -- state protocol (checkpoints, watchdog retries, verification) -------

    def snapshot_state(self) -> dict:
        """Every field but the wiring, keyed by attribute name: generic over
        ``__dict__``, so a new field is captured without being listed."""
        state = self.__dict__.copy()
        for name in WIRING:
            del state[name]
        for name in CONTAINERS:
            state[name] = state[name].copy()
        return state

    def restore_state(self, state: dict) -> None:
        # One C-level dict update restores every scalar; the containers
        # (of ints) are re-copied so the state stays independent.
        fields = self.__dict__
        fields.update(state)
        for name in CONTAINERS:
            fields[name] = state[name].copy()

    def __repr__(self) -> str:
        return (
            f"<VirtContext hart={self.hartid} vmode="
            f"{self.virtual_mode.short_name} mepc={self.mepc:#x}>"
        )
