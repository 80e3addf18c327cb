"""Firmware sandbox policy (§5.2).

Isolates the whole OS from an untrusted firmware:

* **Memory**: the firmware gets a small private range (its own region) and
  loses access to everything else — OS memory, PCIe windows, MMIO — once
  the machine first enters S-mode.  Until that point, boot-time access to
  OS memory is allowed (the firmware must load the S-mode bootloader);
  at lock-down the policy hashes the initial S-mode image.
* **Registers**: general-purpose registers and S-mode CSRs are saved and
  scrubbed around every world switch; for explicit SBI calls only the
  per-call argument registers from the spec-generated allow-list
  (:mod:`repro.sbi.spec_registry`) are exposed, and only the SBI return
  registers may be modified.
* **Emulation**: misaligned loads/stores are emulated directly in the
  policy, since the firmware can no longer reach OS memory to do it.

Violations stop the machine with an error message (the paper's behaviour
during bring-up; see ``MiralisConfig.halt_on_violation``).
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.core.offload import emulate_misaligned
from repro.core.vcpu import VirtContext, World
from repro.core.vpmp import napot_power_of_two_cover
from repro.core.world_switch import S_CSR_FIELDS
from repro.isa import constants as c
from repro.isa.bits import napot_encode
from repro.isa.decoder import decode
from repro.isa.instructions import IllegalInstructionError
from repro.policy.interface import (
    ALL_ADDRESSES,
    PMP_ALLOW_RWX,
    PMP_DENY,
    PolicyAction,
    PolicyModule,
)
from repro.sbi.spec_registry import allowed_read_registers, allowed_write_registers

U64 = (1 << 64) - 1


class FirmwareSandboxPolicy(PolicyModule):
    """Protects OS integrity and confidentiality from the firmware."""

    name = "sandbox"

    def __init__(self, extra_allowed_regions: Optional[list] = None):
        #: (base, size) ranges the operator explicitly allow-lists (e.g. a
        #: documented vendor MMIO block the firmware needs, §5.2).
        self.extra_allowed_regions = list(extra_allowed_regions or [])
        self.locked = [False]
        self.os_image_hash: Optional[str] = None
        self.miralis = None
        self.machine = None
        self._saved_frames: dict[int, Optional[dict]] = {}
        self.scrubbed_switches = 0
        self.emulated_misaligned = 0

    # ------------------------------------------------------------------

    def init(self, miralis, machine) -> None:
        self.miralis = miralis
        self.machine = machine
        self._saved_frames = {h: None for h in range(machine.config.num_harts)}

    def num_pmp_entries(self) -> int:
        return 2 + len(self.extra_allowed_regions)

    def pmp_entries(self, world: World, hartid: int) -> list[tuple[int, int]]:
        if world != World.FIRMWARE or not self.locked[0]:
            return []
        firmware_region = self.miralis.firmware.region
        entries = [
            (napot_encode(firmware_region.base, firmware_region.size), PMP_ALLOW_RWX)
        ]
        for base, size in self.extra_allowed_regions:
            entries.append((napot_power_of_two_cover(base, size), PMP_ALLOW_RWX))
        # Everything else is denied; accesses trap to the monitor and are
        # reported as violations.
        entries.append((ALL_ADDRESSES, PMP_DENY))
        return entries

    def allow_firmware_default_access(self) -> bool:
        return not self.locked[0]

    # ------------------------------------------------------------------
    # Lock-down at the first entry to S-mode
    # ------------------------------------------------------------------

    def on_switch_from_firmware(self, hart, vctx: VirtContext) -> PolicyAction:
        if not self.locked[0]:
            self.locked[0] = True
            self.os_image_hash = self._hash_os_image()
        self._restore_s_csrs(hart, vctx)
        self._restore_registers(hart)
        return PolicyAction.CONTINUE

    def _hash_os_image(self) -> str:
        """Measure the initial S-mode image (boot attestation anchor)."""
        kernel_region = self.machine.region_named("kernel")
        image = self.machine.ram.read_bytes(kernel_region.base, 0x1000)
        return hashlib.sha256(image).hexdigest()

    # ------------------------------------------------------------------
    # Register scrubbing around world switches
    # ------------------------------------------------------------------

    def on_switch_from_os(self, hart, vctx: VirtContext) -> PolicyAction:
        """Save the OS register file and expose only allowed arguments.

        The scrubbed file is built whole and loaded in one call: only the
        call's readable argument registers keep their values.
        """
        state = hart.state
        mcause = state.csr.mcause
        regs = state.xregs
        scrubbed = [0] * 32
        if mcause & c.INTERRUPT_BIT:
            writable: frozenset[int] = frozenset()
        elif mcause == c.TrapCause.ECALL_FROM_S:
            eid, fid = regs[17], regs[16]
            for index in allowed_read_registers(eid, fid):
                scrubbed[index] = regs[index]
            writable = allowed_write_registers(eid, fid)
        elif mcause == c.TrapCause.ILLEGAL_INSTRUCTION:
            # Instruction emulation: the firmware writes the decoded rd.
            try:
                instr = decode(state.csr.read(c.CSR_MTVAL))
                writable = frozenset({instr.rd}) - {0}
            except IllegalInstructionError:
                writable = frozenset()
        else:
            writable = frozenset()
        state.load_xregs(scrubbed)
        frame = {"regs": regs, "writable": writable}
        self._scrub_s_csrs(hart, frame)
        self._saved_frames[hart.hartid] = frame
        self.scrubbed_switches += 1
        return PolicyAction.CONTINUE

    # S-mode CSRs saved around the world switch ("the policy saves and
    # restores general purpose registers and S-mode CSRs to prevent
    # unintended leakage", §5.2): the world switch's own table.  This hook
    # runs before the monitor loads the physical values into the shadow
    # state, so zeroing the physical registers here makes the firmware see
    # scrubbed values, and restoring into the shadow state before the
    # switch back reinstates the truth.

    def _scrub_s_csrs(self, hart, frame: dict) -> None:
        csr_file = hart.state.csr
        saved = {"mstatus_s": csr_file.mstatus & c.SSTATUS_MASK,
                 "sie": csr_file.mie & c.SIP_MASK}
        read, write = csr_file.read, csr_file.write
        for csr, field in S_CSR_FIELDS:
            saved[field] = read(csr)
            write(csr, 0)
        csr_file.mstatus &= ~c.SSTATUS_MASK | c.MSTATUS_UXL  # keep UXL
        frame["s_csrs"] = saved

    def _restore_s_csrs(self, hart, vctx: VirtContext) -> None:
        frame = self._saved_frames.get(hart.hartid)
        if not frame or "s_csrs" not in frame:
            return
        saved = frame["s_csrs"]
        for _csr, field in S_CSR_FIELDS:
            setattr(vctx, field, saved[field])
        vctx.mstatus = (vctx.mstatus & ~c.SSTATUS_MASK) | saved["mstatus_s"]
        vctx.mie = (vctx.mie & ~c.SIP_MASK) | saved["sie"]

    def _restore_registers(self, hart) -> None:
        """Reload the saved OS file, keeping the firmware's results in the
        writable registers: one merged file, one load."""
        frame = self._saved_frames.get(hart.hartid)
        if frame is None:
            return
        state = hart.state
        merged = list(frame["regs"])
        writable = frame["writable"]
        if writable:
            current = state.xregs
            for index in writable:
                merged[index] = current[index]
        state.load_xregs(merged)
        self._saved_frames[hart.hartid] = None

    # ------------------------------------------------------------------
    # Firmware fault handling: any blocked access is a violation
    # ------------------------------------------------------------------

    def on_firmware_trap(self, hart, vctx: VirtContext, trap) -> PolicyAction:
        if trap.cause in (
            c.TrapCause.LOAD_ACCESS_FAULT,
            c.TrapCause.STORE_ACCESS_FAULT,
            c.TrapCause.INSTRUCTION_ACCESS_FAULT,
        ) and self.locked[0]:
            return PolicyAction.DENY
        return PolicyAction.CONTINUE

    # ------------------------------------------------------------------
    # Misaligned emulation inside the policy (§5.2)
    # ------------------------------------------------------------------

    def on_os_trap(self, hart, vctx: VirtContext, trap) -> PolicyAction:
        if trap.cause not in (
            c.TrapCause.LOAD_ADDRESS_MISALIGNED,
            c.TrapCause.STORE_ADDRESS_MISALIGNED,
        ):
            return PolicyAction.CONTINUE
        if self._emulate_misaligned(hart, trap.tval):
            return PolicyAction.HANDLED
        return PolicyAction.CONTINUE

    def _emulate_misaligned(self, hart, address: int) -> bool:
        try:
            size = emulate_misaligned(self.machine, hart, address)
        except Exception:
            # An undecodable instruction, or a transient device fault
            # mid-emulation: decline, letting the trap take its normal
            # (re-injection) path.
            return False
        if not size:
            return False
        hart.charge(self.miralis.config.costs.fastpath_misaligned + size)
        hart.state.pc = (hart.state.csr.mepc + 4) & U64
        self.emulated_misaligned += 1
        self.machine.stats.annotate_last("policy-sandbox", detail="emulate:misaligned", hart=hart.hartid)
        return True
