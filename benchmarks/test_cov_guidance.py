"""Coverage-guidance benchmark: guided vs blind time-to-divergence.

Seeds a known virtualization hole (``os_ipi_write_dropped``: the
monitor's CLINT emulation silently drops direct OS msip stores) and
races the two fuzzers against it with the same case budget:

* the **blind** differential fuzzer decodes scenarios from seeds over
  the base action alphabet — which does not contain the raw CLINT
  access that reaches the hole, so it can *never* find it;
* the **guided** fuzzer mutates kept corpus entries over the extended
  alphabet, so action substitution can reach ``clint_access`` and the
  coverage feedback keeps the intermediate inputs that make the
  mutation path short.

Everything is deterministic (single seeded RNG stream, canonical corpus
order), so the guided case number is exact and stable; the benchmark
asserts guidance finds the hole within the budget and emits
``BENCH_cov.json`` at the repo root.

Run directly (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/test_cov_guidance.py -q
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import once
from repro.core.bugs import seeded
from repro.coverage import Corpus, run_guided_fuzz
from repro.spec.platform import VISIONFIVE2
from repro.verif.fuzz import fuzz_scenario

CANARY = "os_ipi_write_dropped"
CASES = 60
LENGTH = 4
GUIDED_SEED = 3
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cov.json"


def test_guided_beats_blind_to_seeded_divergence(benchmark, show):
    def run_both():
        with seeded(CANARY):
            guided = run_guided_fuzz(
                Corpus(), seed=GUIDED_SEED, cases=CASES, length=LENGTH,
                platform=VISIONFIVE2,
            )
            blind = [
                fuzz_scenario(seed, length=LENGTH, platform=VISIONFIVE2,
                              offload=True)
                for seed in range(CASES)
            ]
        return guided, blind

    guided, blind = once(benchmark, run_both)

    # Blind fuzzing exhausts its whole budget without a finding: the
    # canary is only reachable through the extended action alphabet.
    assert len(blind) == CASES
    assert blind == [None] * CASES

    # Guidance reaches the seeded hole within the budget — measurably
    # fewer cases than blind, which never finds it at all.
    assert guided.first_finding_case is not None, (
        "guided fuzzing never reached the seeded canary"
    )
    assert guided.first_finding_case < CASES
    assert guided.findings, "finding recorded without a divergence"
    first = guided.findings[0]
    assert "ssi" in first.diff(), (
        f"unexpected divergence for the IPI canary: {first.diff()}"
    )
    assert any(action == "clint_access" for action, _ in first.steps), (
        "canary divergence without a clint_access step"
    )

    report = {
        "benchmark": "cov_guidance",
        "platform": VISIONFIVE2.name,
        "canary": CANARY,
        "cases": CASES,
        "length": LENGTH,
        "guided_seed": GUIDED_SEED,
        "guided_cases_to_find": guided.first_finding_case,
        "guided_findings": len(guided.findings),
        "guided_kept": len(guided.kept),
        "guided_coverage_paths": guided.coverage.path_count(),
        "blind_cases": CASES,
        "blind_found": any(finding is not None for finding in blind),
        "speedup": f">{CASES}/{guided.first_finding_case}x "
                   "(blind never finds it)",
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    show(
        "cov guidance: guided found {canary} at case "
        "{guided_cases_to_find}/{cases}; blind found nothing in "
        "{blind_cases} cases -> {path}".format(
            path=RESULT_PATH.name, **report
        )
    )
