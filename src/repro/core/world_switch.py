"""World switches between vM-mode (firmware) and direct execution (OS).

§4.1: "from firmware to the OS Miralis installs the virtual CSRs into the
physical registers, except for CSRs required for emulation or isolation
such as PMP and mie, and conversely from the OS to firmware Miralis loads
the content of the physical CSRs into the virtual copies and installs well
defined values in physical registers.  As a world switch involves changing
memory permissions, it also requires a TLB flush."
"""

from __future__ import annotations

from repro.core.vcpu import VirtContext, World
from repro.isa import constants as c

U64 = (1 << 64) - 1

# mstatus fields the OS may change natively and the firmware observes
# virtually (the sstatus view plus the FS/VS dirtiness bits).
_S_STATUS_FIELDS = c.SSTATUS_MASK

# The supervisor CSRs transferred on every world switch, as
# ``(csr, VirtContext field)`` pairs.  The sandbox policy saves and
# scrubs the same eight around the switch (``repro.policy.sandbox``).
S_CSR_FIELDS = (
    (c.CSR_STVEC, "stvec"),
    (c.CSR_SSCRATCH, "sscratch"),
    (c.CSR_SEPC, "sepc"),
    (c.CSR_SCAUSE, "scause"),
    (c.CSR_STVAL, "stval"),
    (c.CSR_SATP, "satp"),
    (c.CSR_SCOUNTEREN, "scounteren"),
    (c.CSR_SENVCFG, "senvcfg"),
)

_M_INTERRUPTS = c.MIP_MTIP | c.MIP_MSIP | c.MIP_MEIP


class WorldSwitcher:
    """Performs the physical-state swap for both switch directions."""

    def __init__(self, miralis):
        self.miralis = miralis
        self.machine = miralis.machine
        self.costs = miralis.config.costs
        # Platform features, fixed for the machine's life; bound once
        # (``has_h_extension`` is a property recomputed on every read).
        config = self.machine.config
        self.has_sstc = config.has_sstc
        self.has_h_extension = config.has_h_extension

    # ------------------------------------------------------------------
    # OS -> firmware
    # ------------------------------------------------------------------

    def enter_firmware(self, hart, vctx: VirtContext) -> None:
        """Save the OS's supervisor state and prepare vM-mode execution."""
        model = hart.cycle_model
        csr_file = hart.state.csr

        # Load physical S CSRs into the virtual copies.
        read = csr_file.read
        for csr, field in S_CSR_FIELDS:
            setattr(vctx, field, read(csr))
        csr_ops = len(S_CSR_FIELDS)
        if self.has_sstc:
            vctx.stimecmp = csr_file.stimecmp
            csr_ops += 1
        # Fold the OS-visible mstatus fields and interrupt state back in.
        vctx.mstatus = (vctx.mstatus & ~_S_STATUS_FIELDS) | (
            csr_file.mstatus & _S_STATUS_FIELDS
        )
        vctx.mie = (vctx.mie & ~c.SIP_MASK) | (csr_file.mie & c.SIP_MASK)
        vctx.mip = (vctx.mip & ~c.SIP_MASK) | (csr_file.mip & c.SIP_MASK)
        csr_ops += 3
        if self.has_h_extension:
            h_csrs = vctx.h_csrs
            for csr in h_csrs:
                h_csrs[csr] = read(csr)
            csr_ops += len(h_csrs)

        # Install well-defined physical values for vM-mode execution: no
        # address translation, no delegation (every trap from the firmware
        # must reach the monitor), no S-level interrupts firing mid-vM.
        csr_file.satp = 0
        csr_file.medeleg = 0
        csr_file.mideleg = 0
        csr_file.mie = _M_INTERRUPTS
        csr_file.mip_sw = 0
        csr_file.mstatus &= ~(c.MSTATUS_MPRV | c.MSTATUS_SIE)
        csr_ops += 6

        writes = self.miralis.vpmp.install(hart, vctx, World.FIRMWARE,
                                           self.miralis.policy)
        hart.charge(
            self.costs.world_switch_logic
            + (csr_ops + writes) * model.csr_access
            + model.tlb_flush
        )
        self.miralis.world[hart.hartid] = World.FIRMWARE
        self.machine.stats.note_world_switch(
            hart.hartid, "enter-firmware", csr_ops + writes)

    # ------------------------------------------------------------------
    # firmware -> OS
    # ------------------------------------------------------------------

    def enter_os(self, hart, vctx: VirtContext, target_mode: c.PrivilegeLevel) -> None:
        """Install the virtual supervisor state physically and resume the OS."""
        model = hart.cycle_model
        csr_file = hart.state.csr

        write = csr_file.write
        for csr, field in S_CSR_FIELDS:
            write(csr, getattr(vctx, field))
        csr_ops = len(S_CSR_FIELDS)
        if self.has_sstc:
            csr_file.stimecmp = vctx.stimecmp
            csr_ops += 1
        if self.has_h_extension:
            for csr, value in vctx.h_csrs.items():
                write(csr, value)
            csr_ops += len(vctx.h_csrs)

        # M-level environment configuration the OS's execution depends on
        # (counter access, Sstc enable) mirrors the virtual values.
        csr_file.write(c.CSR_MCOUNTEREN, vctx.mcounteren)
        csr_file.write(c.CSR_MENVCFG, vctx.menvcfg)
        csr_ops += 2
        # mstatus: expose the virtual sstatus fields physically.
        csr_file.mstatus = (
            (csr_file.mstatus & ~_S_STATUS_FIELDS)
            | (vctx.mstatus & _S_STATUS_FIELDS)
        ) & ~c.MSTATUS_MPRV
        # Delegation: exceptions as the firmware configured; interrupts
        # hard-delegated so S-level interrupts never cost a world switch.
        csr_file.medeleg = vctx.medeleg
        csr_file.mideleg = c.MIDELEG_MASK
        # Interrupt enables: the OS's S-level enables plus the M-level
        # sources the monitor must intercept (timer multiplexing, IPIs).
        csr_file.mie = (vctx.mie & c.SIP_MASK) | _M_INTERRUPTS
        # Software-pending bits the firmware raised for the OS.
        csr_file.mip_sw = vctx.mip & c.SIP_MASK & c.MIP_WRITABLE
        csr_ops += 4

        writes = self.miralis.vpmp.install(hart, vctx, World.OS, self.miralis.policy)
        hart.charge(
            self.costs.world_switch_logic
            + (csr_ops + writes) * model.csr_access
            + model.tlb_flush
        )
        hart.state.mode = target_mode
        self.miralis.world[hart.hartid] = World.OS
        self.machine.stats.note_world_switch(
            hart.hartid, "enter-os", csr_ops + writes, target_mode)
