"""Faithful emulation checking (Definition 1, Figure 7).

``vfm(s, i) ≃ hw(c, s, i)`` — for every privileged instruction and
machine state, one trap-emulate-resume iteration of the monitor must
produce the same state as the reference specification executing the same
instruction on a reference machine whose configuration ``c`` is the
*virtual platform* (fewer PMP entries, hard-wired mideleg).

The checker instantiates both sides from a shared state description, runs
them, and compares every virtual register, the privilege mode, and the
program counter.  It is exactly the harness that catches the seeded §6.5
bug classes (see ``tests/verif/test_seeded_bugs.py``).
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.core.csr_emul import VirtCsrError  # noqa: F401 (re-exported)
from repro.core.emulator import (
    VirtualTrapError,
    emulate_privileged,
    inject_virtual_trap,
)
from repro.core.vcpu import VirtContext
from repro.isa import constants as c
from repro.isa.instructions import Instruction
from repro.spec.state import MachineState
from repro.spec.step import execute_instruction
from repro.verif.report import CheckReport, Divergence

U64 = (1 << 64) - 1

#: CSR fields compared between the two models: (label, vctx attr, spec csr).
_COMPARED_CSRS = (
    ("mstatus", "mstatus", c.CSR_MSTATUS),
    ("mie", "mie", c.CSR_MIE),
    ("mideleg", "mideleg", c.CSR_MIDELEG),
    ("medeleg", "medeleg", c.CSR_MEDELEG),
    ("mtvec", "mtvec", c.CSR_MTVEC),
    ("mepc", "mepc", c.CSR_MEPC),
    ("mcause", "mcause", c.CSR_MCAUSE),
    ("mtval", "mtval", c.CSR_MTVAL),
    ("mscratch", "mscratch", c.CSR_MSCRATCH),
    ("mcounteren", "mcounteren", c.CSR_MCOUNTEREN),
    ("menvcfg", "menvcfg", c.CSR_MENVCFG),
    ("stvec", "stvec", c.CSR_STVEC),
    ("sscratch", "sscratch", c.CSR_SSCRATCH),
    ("sepc", "sepc", c.CSR_SEPC),
    ("scause", "scause", c.CSR_SCAUSE),
    ("stval", "stval", c.CSR_STVAL),
    ("satp", "satp", c.CSR_SATP),
    ("scounteren", "scounteren", c.CSR_SCOUNTEREN),
    ("senvcfg", "senvcfg", c.CSR_SENVCFG),
)


def virtual_platform(config, virtual_pmp_count: Optional[int] = None):
    """The reference configuration ``c`` of Definition 1's ``∃c``.

    The virtual platform differs from the host in exactly the documented
    ways: fewer PMP entries (Miralis reserves some) and hard-wired
    interrupt delegation (§4.3).
    """
    return config.with_overrides(
        pmp_count=(
            virtual_pmp_count if virtual_pmp_count is not None else config.pmp_count
        ),
        mideleg_hardwired=True,
    )


class StateDescription:
    """A shared machine-state description instantiable as either model."""

    def __init__(self, csr_values: Optional[dict] = None,
                 gprs: Optional[list[int]] = None,
                 pc: int = 0x8020_0000,
                 mtime: int = 1_000):
        self.csr_values = dict(csr_values or {})
        self.gprs = list(gprs) if gprs is not None else [0] * 32
        if len(self.gprs) != 32:
            raise ValueError("expected 32 GPR values")
        self.pc = pc
        self.mtime = mtime

    # CSRs installed through the architectural write path so that
    # descriptions only ever denote *reachable* states — injecting raw
    # values would bypass WARL legalization and create states no real
    # machine can be in (e.g. mstatus.MPP=2).
    _WRITE_THROUGH = {
        "mstatus": c.CSR_MSTATUS,
        "mie": c.CSR_MIE,
        "mideleg": c.CSR_MIDELEG,
        "medeleg": c.CSR_MEDELEG,
        "mtvec": c.CSR_MTVEC,
        "mepc": c.CSR_MEPC,
        "mcause": c.CSR_MCAUSE,
        "mtval": c.CSR_MTVAL,
        "mscratch": c.CSR_MSCRATCH,
        "mcounteren": c.CSR_MCOUNTEREN,
        "menvcfg": c.CSR_MENVCFG,
        "stvec": c.CSR_STVEC,
        "sscratch": c.CSR_SSCRATCH,
        "sepc": c.CSR_SEPC,
        "scause": c.CSR_SCAUSE,
        "stval": c.CSR_STVAL,
        "satp": c.CSR_SATP,
        "scounteren": c.CSR_SCOUNTEREN,
        "senvcfg": c.CSR_SENVCFG,
        "stimecmp": c.CSR_STIMECMP,
    }

    # -- instantiation -----------------------------------------------------

    def make_vctx(self, platform) -> VirtContext:
        from repro.core.csr_emul import write_csr

        vctx = VirtContext(platform, hartid=0)
        vctx.virtual_pmp_count = platform.pmp_count
        for key, value in self.csr_values.items():
            if key == "mip":
                vctx.mip = value & c.MIP_MASK
            elif key == "pmpcfg":
                vctx.pmpcfg = list(value) + [0] * (64 - len(value))
            elif key == "pmpaddr":
                vctx.pmpaddr = list(value) + [0] * (64 - len(value))
            elif key in self._WRITE_THROUGH:
                write_csr(vctx, self._WRITE_THROUGH[key], value & U64)
            else:
                setattr(vctx, key, value & U64)
        return vctx

    def make_spec_state(self, platform) -> MachineState:
        state = MachineState(platform, hartid=0, time_source=lambda: self.mtime)
        state.mode = c.M_MODE
        state.pc = self.pc
        csr_file = state.csr
        for key, value in self.csr_values.items():
            if key == "mip":
                csr_file.mip_sw = value & c.MIP_WRITABLE
                csr_file.mip_hw = value & c.MIP_MASK & ~c.MIP_WRITABLE
            elif key == "pmpcfg":
                csr_file.pmpcfg = list(value) + [0] * (64 - len(value))
            elif key == "pmpaddr":
                csr_file.pmpaddr = list(value) + [0] * (64 - len(value))
            elif key == "mcycle":
                csr_file._simple[c.CSR_MCYCLE] = value & U64
            elif key == "minstret":
                csr_file._simple[c.CSR_MINSTRET] = value & U64
            elif key in self._WRITE_THROUGH:
                csr_file.write(self._WRITE_THROUGH[key], value & U64)
            else:
                setattr(csr_file, key, value & U64)
        for index, value in enumerate(self.gprs):
            state.set_xreg(index, value)
        return state


def vfm_step(vctx: VirtContext, instr: Instruction, pc: int, mtime: int,
             gprs: list[int]) -> int:
    """One iteration of the VFM's trap-emulate-resume loop (``vfm``).

    Mutates ``vctx`` and ``gprs``; returns the pc the firmware resumes at.
    """

    def gpr_read(index: int) -> int:
        return gprs[index]

    def gpr_write(index: int, value: int) -> None:
        if index != 0:
            gprs[index] = value & U64

    try:
        result = emulate_privileged(
            vctx, instr, trapped_pc=pc,
            gpr_read=gpr_read, gpr_write=gpr_write, mtime=mtime,
        )
    except VirtualTrapError as exc:
        return inject_virtual_trap(vctx, exc.cause, False, exc.tval, pc)
    # Deliberately NOT truncated here: the emulator is responsible for
    # 64-bit pc arithmetic, and masking would hide the §6.5 vPC-overflow
    # bug class from the checker.
    return result.next_pc


def compare_states(vctx: VirtContext, spec_state: MachineState,
                   gprs: list[int], vfm_pc: int, check: str,
                   context) -> list[Divergence]:
    """All-fields comparison (the ≃ of Definition 1).

    ``context`` may be a string or a zero-argument callable; callables are
    resolved only when a divergence is actually recorded, so the checker's
    no-divergence common case never pays for context formatting.
    """
    divergences: list[Divergence] = []
    resolved: Optional[str] = None

    def diff(field: str, expected, actual) -> None:
        nonlocal resolved
        if expected != actual:
            if resolved is None:
                resolved = context() if callable(context) else context
            divergences.append(Divergence(check, field, expected, actual, resolved))

    csr_file = spec_state.csr
    diff("pc", spec_state.pc, vfm_pc)
    diff("mode", spec_state.mode, vctx.virtual_mode)
    read = csr_file.read
    for label, attr, csr in _COMPARED_CSRS:
        diff(label, read(csr), getattr(vctx, attr))
    diff("mip", csr_file.mip, vctx.mip & c.MIP_MASK)
    # Compare the full architectural register file, not just the
    # implemented entries: writes beyond the virtual count must be ignored
    # by both models (the §6.5 out-of-range vPMP bug lives there).
    diff("pmpcfg", csr_file.pmpcfg, vctx.pmpcfg)
    diff("pmpaddr", csr_file.pmpaddr, vctx.pmpaddr)
    if spec_state.config.has_sstc:
        diff("stimecmp", csr_file.stimecmp, vctx.stimecmp)
    for csr in spec_state.config.vendor_csrs:
        diff(f"vendor:{csr:#x}", csr_file.read(csr), vctx.vendor[csr])
    # One list comparison decides the common all-equal case before any
    # per-register diff labels are built.
    spec_gprs = spec_state.xregs
    if spec_gprs != gprs:
        for index in range(32):
            diff(f"x{index}", spec_gprs[index], gprs[index])
    return divergences


def check_instruction(platform, description: StateDescription,
                      instr: Instruction, check: str = "faithful-emulation",
                      ) -> list[Divergence]:
    """Run one (state, instruction) pair through both models and compare."""
    vctx = description.make_vctx(platform)
    spec_state = description.make_spec_state(platform)
    gprs = list(description.gprs)
    vfm_pc = vfm_step(vctx, instr, description.pc, description.mtime, gprs)
    execute_instruction(spec_state, instr)
    return compare_states(
        vctx, spec_state, gprs, vfm_pc, check,
        context=lambda: f"instr={instr} pc={description.pc:#x}",
    )


def run_emulation_check(platform, descriptions: Iterable[StateDescription],
                        instructions: Iterable[Instruction],
                        task: str) -> CheckReport:
    """Cross-product check: every description x every instruction.

    Each description's two model states are instantiated once and rolled
    back via snapshot/restore between instructions: instantiation funnels
    every CSR through the architectural write path (WARL legalization),
    which dominated the checker's runtime when repeated per instruction.
    """
    report = CheckReport(task=task)
    start = time.perf_counter()
    instruction_list = list(instructions)
    for description in descriptions:
        vctx = description.make_vctx(platform)
        spec_state = description.make_spec_state(platform)
        vctx_snap = vctx.snapshot_state()
        spec_snap = spec_state.snapshot_state()
        first = True
        for instr in instruction_list:
            if not first:
                vctx.restore_state(vctx_snap)
                spec_state.restore_state(spec_snap)
            first = False
            gprs = list(description.gprs)
            vfm_pc = vfm_step(vctx, instr, description.pc, description.mtime, gprs)
            execute_instruction(spec_state, instr)
            report.divergences.extend(
                compare_states(
                    vctx, spec_state, gprs, vfm_pc, check=task,
                    context=lambda instr=instr: (
                        f"instr={instr} pc={description.pc:#x}"
                    ),
                )
            )
            report.inputs_checked += 1
    report.elapsed_seconds = time.perf_counter() - start
    return report
