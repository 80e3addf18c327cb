"""Table 2: model-checking time of the emulation pipeline.

Runs each verification task of §6 and reports its wall time and input
count.  The paper's absolute times are Kani/SMT runtimes (68 s for mret up
to 118 min end-to-end); our enumerative checker is much faster per task,
but the *relative* ordering — CSR write and end-to-end emulation dominate,
single instructions are cheap — reproduces.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import once
from repro.bench.tables import render_table
from repro.isa import constants as c
from repro.isa.instructions import Instruction
from repro.spec.csrs import known_csr_addresses
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized
from repro.verif import (
    StateDescription,
    csr_instruction_space,
    csr_value_space,
    mstatus_space,
    pmp_config_space,
    run_emulation_check,
    run_execution_check,
    run_interrupt_check,
    run_routing_check,
    virtual_platform,
)

PAPER_TIMES = {
    "mret instruction": "68 s",
    "sret instruction": "56 s",
    "wfi instruction": "28 s",
    "instruction decoder": "45 s",
    "CSR read": "99 s",
    "CSR write": "9 min",
    "virtual interrupt": "94 s",
    # Not in the paper: progress of the monitor's interrupt routing.
    "interrupt routing": "(extension)",
    "memory protection": "(§6.4)",
    "end-to-end emulation": "118 min",
}

PLATFORM = virtual_platform(VISIONFIVE2, virtual_pmp_count=4)


def _mstatus_descriptions():
    return [StateDescription(csr_values={"mstatus": v, "mepc": 0x8400_0000,
                                         "sepc": 0x8400_2000})
            for v in mstatus_space()]


def _task_mret():
    return run_emulation_check(PLATFORM, _mstatus_descriptions(),
                               [Instruction("mret")], task="mret instruction")


def _task_sret():
    return run_emulation_check(PLATFORM, _mstatus_descriptions(),
                               [Instruction("sret")], task="sret instruction")


def _task_wfi():
    return run_emulation_check(PLATFORM, _mstatus_descriptions(),
                               [Instruction("wfi")], task="wfi instruction")


def _task_decoder():
    import time

    from repro.isa.decoder import decode
    from repro.isa.encoding import encode
    from repro.verif.report import CheckReport

    report = CheckReport(task="instruction decoder")
    start = time.perf_counter()
    for instr in csr_instruction_space(known_csr_addresses(PLATFORM)):
        assert decode(encode(instr)) == instr
        report.inputs_checked += 1
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _task_csr_read():
    instructions = [Instruction("csrrs", rd=1, rs1=0, csr=csr)
                    for csr in known_csr_addresses(PLATFORM)]
    descriptions = [StateDescription(),
                    StateDescription(csr_values={"mie": c.MIP_MASK})]
    return run_emulation_check(PLATFORM, descriptions, instructions,
                               task="CSR read")


def _task_csr_write():
    descriptions = [StateDescription(gprs=[0] + [value] * 31)
                    for value in csr_value_space(samples=2)[:24]]
    return run_emulation_check(
        PLATFORM, descriptions,
        csr_instruction_space(known_csr_addresses(PLATFORM)),
        task="CSR write",
    )


def _task_virtual_interrupt():
    return run_interrupt_check(PLATFORM, task="virtual interrupt")


def _task_interrupt_routing():
    return run_routing_check(task="interrupt routing")


def _task_memory_protection():
    system = build_virtualized(VISIONFIVE2)
    return run_execution_check(
        system, pmp_config_space(system.miralis.vpmp.virtual_count),
        task="memory protection",
    )


def _task_end_to_end():
    from repro.verif.spaces import system_instruction_space

    descriptions = [StateDescription(gprs=[0] + [value] * 31,
                                     csr_values={"mstatus": status})
                    for value in csr_value_space(samples=0)[:12]
                    for status in (0, (3 << 11) | c.MSTATUS_MPIE)]
    instructions = list(csr_instruction_space(known_csr_addresses(PLATFORM)))
    instructions += list(system_instruction_space())
    return run_emulation_check(PLATFORM, descriptions, instructions,
                               task="end-to-end emulation")


TASKS = (
    _task_mret, _task_sret, _task_wfi, _task_decoder, _task_csr_read,
    _task_csr_write, _task_virtual_interrupt, _task_interrupt_routing,
    _task_memory_protection, _task_end_to_end,
)


def test_table2_verification_times(benchmark, show):
    def run_all():
        return [task() for task in TASKS]

    reports = once(benchmark, run_all)
    rows = []
    for report in reports:
        rows.append((
            report.task,
            PAPER_TIMES[report.task],
            f"{report.elapsed_seconds:.2f} s",
            report.inputs_checked,
            "PASS" if report.passed else "FAIL",
        ))
    show(render_table(
        "Table 2: verification time per task (paper=Kani model checking, "
        "measured=enumerative checking)",
        ("verification task", "paper", "measured", "inputs", "result"), rows,
    ))
    assert all(report.passed for report in reports), [
        report.first_failures() for report in reports if not report.passed
    ]
    by_task = {report.task: report.elapsed_seconds for report in reports}
    # Relative ordering as in Table 2: the big sweeps dominate.
    assert by_task["end-to-end emulation"] >= by_task["mret instruction"]
    assert by_task["CSR write"] >= by_task["CSR read"]
