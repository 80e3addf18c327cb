"""Golden chaos digests: the chaos layers' host code must not move a bit.

Each cell is one ``run_chaos`` call (every firmware × every canned plan at
one chaos seed) with a fresh :class:`CoverageMap` attached.  The digest
covers what a chaos run reports — injections, the trap flight recorder,
watchdog decisions, quarantines, halt reason, error and console — plus
the coverage map's bitmap, exact paths and record count, and the
machine's trap counts and exact ``cycles`` float.  The digests were
recorded before the fault injector, coverage map, activation snapshots
and vM-mode CSR-trap path were optimised for host time; any change to
them means a host-only change altered a simulated bit, an injection
decision or a coverage bit.  The four ``stall-loop`` digests were
re-recorded once, for a model change: the watchdog's no-progress storm
detector ends the runaway loop long before the trap budget did.  The
three SBI ``decode-flip`` digests were re-recorded twice: when a watchdog
rewind began restoring the annotations it used to leave behind, and when
a retried activation began pinning its own trap for the firmware's
annotation.  ``UNANNOTATED`` shows that only handler annotations moved.
The four ``transient-mmio`` digests were re-recorded when a cell that
raises began keeping its flight record; ``FLIGHT_BLANKED`` shows that
only the flight-record fields moved.

Every cell is pinned, including the four that end in an escaped
exception (``error`` set): the ``transient-mmio`` cells at this seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.coverage import CoverageMap
from repro.faults.chaos import CHAOS_FIRMWARES, run_chaos
from repro.faults.plans import PLANS
from repro.hart.machine import Machine

CHAOS_SEED = 1

GOLDEN = {
    "opensbi/csr-chaos": "9e8189235a9ed150e9dbde64d7111acc5f75b88cf4e1ef0ba16586a033e52295",
    "opensbi/decode-flip": "3d090a05010c23859e35cce5b1cff3d9ac5129a49c0d44da5dd42efe022315b0",
    "opensbi/flaky-uart": "5dfde586014dbfe2b1f7f40814bea61e9eb9450203e761981beff94683db5730",
    "opensbi/mtvec-smash": "6f4cadea92af20f55d8c50e6260fa20cacd9e4792fa09d394b9b2867ee352398",
    "opensbi/none": "9cba293dba9f2433276c4523ca623f7dff0ec775593e9e2f61346e4b2ef94384",
    "opensbi/padded-mtvec": "6f4cadea92af20f55d8c50e6260fa20cacd9e4792fa09d394b9b2867ee352398",
    "opensbi/stall-loop": "f6e0bdee9c82348971fc4e20e97a7152bf147b6384aa982f0c22407deb6ff107",
    "opensbi/transient-mmio": "e352a6f45f3fed71d7dca07607d626cb5c133b537bf705a562c1dc544144df17",
    "rustsbi/csr-chaos": "9de50d7434bd53d55fda287681df9641db3de548ba36d0e1231639eb3261c153",
    "rustsbi/decode-flip": "7691aaf40446673e4e4989dc88353f3092179bffe4ccddbd40a894399a284aad",
    "rustsbi/flaky-uart": "41f777965c1f557fdb4f4d7409885c12620684b8f4617125698b1d427cf69791",
    "rustsbi/mtvec-smash": "878d7c1c89c4e80a339409ebd5c58ad26ed433f97f987ae3e4473633ee8c4826",
    "rustsbi/none": "3f847ef32684c49635854bdc0bca1c480061ccc150e2b8d141d59c45f1425b35",
    "rustsbi/padded-mtvec": "878d7c1c89c4e80a339409ebd5c58ad26ed433f97f987ae3e4473633ee8c4826",
    "rustsbi/stall-loop": "ab61368855982b41c0a6f33c724f171e192f3a455f8444a87067274bd8f60744",
    "rustsbi/transient-mmio": "ee96fe2aea7e670263759d57508ffacea6a434a4ab58fce409aac5e0b3947021",
    "zephyr/csr-chaos": "db32ebdc3112e46a24708d5ca70c0f4f2d6c41cdedf894575ccca927d1ad1de1",
    "zephyr/decode-flip": "2c05c87546443c2086ee8ab4e39c5299892677da23c9829196add078b9cad5a8",
    "zephyr/flaky-uart": "db32ebdc3112e46a24708d5ca70c0f4f2d6c41cdedf894575ccca927d1ad1de1",
    "zephyr/mtvec-smash": "617b747cd46d8e6dad2044078968858d106cbb7c98bdd323e01062ad3110fbbe",
    "zephyr/none": "db32ebdc3112e46a24708d5ca70c0f4f2d6c41cdedf894575ccca927d1ad1de1",
    "zephyr/padded-mtvec": "617b747cd46d8e6dad2044078968858d106cbb7c98bdd323e01062ad3110fbbe",
    "zephyr/stall-loop": "2e658c10ae3555afb57f855c89baf4889ea111bebcd1df340948e1c349450399",
    "zephyr/transient-mmio": "a61a11a228a04920f12cd08fc1f7502f3619112beb6aba1279841eb2564b104e",
    "malicious/csr-chaos": "e0b59c3e44bf1c8042736a08dce6b09601577a359ede8ac30ce5aa4895985bcd",
    "malicious/decode-flip": "a48d6e53fffdff25cb045e6f8a0dfea87c211ed2e09a30832fc9912d33941ce8",
    "malicious/flaky-uart": "5dfde586014dbfe2b1f7f40814bea61e9eb9450203e761981beff94683db5730",
    "malicious/mtvec-smash": "6f69579173d9d6a1b1f28a86e6408ca317aff54633adb4877b564c176a02615a",
    "malicious/none": "e86756f71eef3153e37d54a796e3fc8fb15ba7baa3bd0f991521c98ff1087902",
    "malicious/padded-mtvec": "6f69579173d9d6a1b1f28a86e6408ca317aff54633adb4877b564c176a02615a",
    "malicious/stall-loop": "9908b69fd03a6825772dce875739252cafed818bd8beba1f86be3e2c3fc69061",
    "malicious/transient-mmio": "e352a6f45f3fed71d7dca07607d626cb5c133b537bf705a562c1dc544144df17",
}


#: The cells above re-recorded when a watchdog rewind began restoring the
#: annotations of pre-epoch trap events, each mapped to its digest with
#: every trap's handler and detail left out, recorded before that change.
#: These still match, so the rewind fix and the retry-pin fix moved
#: annotations and nothing else: not a trap, a cycle, an injection, a
#: console byte or a halt.
UNANNOTATED = {
    "opensbi/decode-flip": "a3056d6e88d7a2550e7fdb07b1c918a1c605b21aae8b3d10aa12a1f6db4aed1e",
    "rustsbi/decode-flip": "b03627934181c7340bc97ec90a49f51d5c8baf761f45ed897f7697e352c59bfb",
    "malicious/decode-flip": "6dae9eaaed02a49cf5043dfa862ab36178fb598e962b02a6b257bc8d6ac822ee",
}


#: The ``transient-mmio`` cells, whose ``error`` is set, mapped to their
#: digest with the flight-record fields blanked, recorded before a cell
#: that raises kept its flight record.  These still match, so the fix
#: filled in the trap log, console and watchdog decisions and moved
#: nothing else.
FLIGHT_BLANKED = {
    "opensbi/transient-mmio": "5637df41b2c3d1467a366a9460e457aa7463099af60cb924a3c9cfc3ddcfeba4",
    "rustsbi/transient-mmio": "817c4e33c0c251ce27a5a8018da04853c068da8e2855db61d9713db3227163ed",
    "zephyr/transient-mmio": "c8ad53de3ef8187e59d1f434829ba45af526c5aba3fd068387a8bef6b0dac6d4",
    "malicious/transient-mmio": "5637df41b2c3d1467a366a9460e457aa7463099af60cb924a3c9cfc3ddcfeba4",
}

#: What a cell that raised reported before it kept its flight record.
_NO_FLIGHT_RECORD = {
    "trap_log": (), "trap_log_total": 0, "console": "", "recoveries": {},
    "hart_recoveries": [], "quarantine_log": (),
}


def _causes(tail):
    """A trap tail without its handler annotations."""
    return [(cause, is_interrupt) for cause, is_interrupt, _, _ in tail]


def chaos_digest(result, coverage: CoverageMap, machine,
                 annotated: bool = True) -> str:
    trap_log, quarantine_log = result.trap_log, result.quarantine_log
    if not annotated:
        trap_log = _causes(trap_log)
        quarantine_log = [
            [(key, _causes(value) if key == "trap_tail" else value)
             for key, value in record]
            for record in quarantine_log
        ]
    doc = {
        "injection_log": result.injection_log,
        "trap_log": trap_log,
        "trap_log_total": result.trap_log_total,
        "recoveries": sorted(result.recoveries.items()),
        "hart_recoveries": [sorted(per_hart.items())
                            for per_hart in result.hart_recoveries],
        "quarantine_log": quarantine_log,
        "halt_reason": result.halt_reason,
        "error": result.error,
        "console": result.console,
        "coverage_bits": bytes(coverage.bits).hex(),
        "coverage_paths": sorted(coverage.paths),
        "coverage_records": coverage.records,
        "trap_counts": sorted(machine.stats.trap_counts.items()),
        "cycles": repr(machine.cycles),
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def run_cell(firmware: str, plan: str, monkeypatch,
             annotated: bool = True, flight_record: bool = True) -> str:
    """Run one cell and digest it; the machine is caught as it is built
    (``run_chaos`` returns only its result)."""
    built: list = []
    original = Machine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Machine, "__init__", init)
    coverage = CoverageMap()
    result = run_chaos(firmware, plan, seed=CHAOS_SEED, coverage=coverage)
    monkeypatch.setattr(Machine, "__init__", original)
    assert built, "run_chaos built no machine"
    if not flight_record:
        result = dataclasses.replace(result, **_NO_FLIGHT_RECORD)
    return chaos_digest(result, coverage, built[-1], annotated)


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("firmware", CHAOS_FIRMWARES)
def test_chaos_cell_matches_golden(firmware, plan, monkeypatch):
    assert run_cell(firmware, plan, monkeypatch) == GOLDEN[f"{firmware}/{plan}"]


@pytest.mark.parametrize("cell", sorted(UNANNOTATED))
def test_rerecorded_cell_moved_only_annotations(cell, monkeypatch):
    firmware, plan = cell.split("/")
    assert run_cell(firmware, plan, monkeypatch,
                    annotated=False) == UNANNOTATED[cell]


@pytest.mark.parametrize("cell", sorted(FLIGHT_BLANKED))
def test_raising_cell_gained_only_its_flight_record(cell, monkeypatch):
    firmware, plan = cell.split("/")
    assert run_cell(firmware, plan, monkeypatch,
                    flight_record=False) == FLIGHT_BLANKED[cell]
