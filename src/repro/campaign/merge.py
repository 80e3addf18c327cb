"""Deterministic aggregation of campaign results.

``merge_campaign`` folds per-cell results into one aggregate document
whose *canonical* portion is byte-identical for a given cell matrix, no
matter how many workers ran it or in what order cells completed.  All
nondeterministic measurements (wall clock, per-cell elapsed, attempt
counts, worker assignment) live under the single top-level ``"timing"``
key, which :func:`canonical_aggregate` strips; everything else is built
from sorted, JSON-stable data:

* verification cells merge through
  :func:`repro.verif.report.merge_reports` — ``inputs_checked`` sums and
  divergences re-sort by input key;
* fuzz findings sort by ``(seed, offload)``, and the seeds of a cell
  that did not run are carried as skipped, never dropped;
* chaos summaries sort by cell key;
* failures deduplicate by triage signature into ``failure_groups``
  ("3 distinct failures × N occurrences"), sorted by digest.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from repro.campaign.cells import VERIF_TASK_ORDER
from repro.campaign.runner import CampaignResult, CellResult
from repro.verif.report import CheckReport, Divergence, merge_reports

SCHEMA = "repro-campaign-v1"


def report_from_dict(doc: dict) -> CheckReport:
    """Rebuild a :class:`CheckReport` from a cell payload."""
    report = CheckReport(
        task=doc["task"],
        inputs_checked=doc["inputs_checked"],
        elapsed_seconds=doc.get("elapsed_seconds", 0.0),
    )
    report.divergences = [Divergence(**entry) for entry in doc["divergences"]]
    return report


def merged_check_reports(results: Iterable[CellResult]) -> list[CheckReport]:
    """The merged Table 2 reports carried by a campaign's verif cells."""
    shards = [report_from_dict(r.payload["report"])
              for r in results
              if r.family == "verif" and "report" in r.payload]
    merged = merge_reports(shards)
    order = {task: index for index, task in enumerate(VERIF_TASK_ORDER)}
    merged.sort(key=lambda report: (order.get(report.task, len(order)),
                                    report.task))
    return merged


def merge_campaign(campaign: CampaignResult) -> dict:
    """Fold a :class:`CampaignResult` into the aggregate document."""
    counts = campaign.counts()
    families: dict[str, dict] = {}
    cells = []
    failures = []
    timing_cells = {}
    for result in campaign.results:  # already sorted by key
        family = families.setdefault(
            result.family, {status: 0 for status in
                            ("cells", "ok", "fail", "error", "timeout",
                             "skipped")})
        family["cells"] += 1
        family[result.status] += 1
        cells.append({
            "key": result.key,
            "family": result.family,
            "status": result.status,
            "error": result.error,
        })
        if result.status != "ok":
            failures.append({"key": result.key, "status": result.status,
                             "error": result.error})
        timing_cells[result.key] = {
            "elapsed_seconds": result.elapsed_seconds,
            "attempts": result.attempts,
            "worker": result.worker,
        }
    from repro.triage.dedup import group_failures

    aggregate = {
        "schema": SCHEMA,
        "counts": counts,
        "families": families,
        "cells": cells,
        "failures": failures,
        # Signature-based deduplication: one entry per *distinct*
        # failure, each listing its occurrences.  Deterministic (sorted
        # by digest, sorted member keys) and therefore part of the
        # canonical aggregate.
        "failure_groups": group_failures(campaign.results),
    }

    verif_results = campaign.by_family("verif")
    if verif_results:
        aggregate["verif"] = {
            "reports": [report.to_dict(include_timing=False)
                        for report in merged_check_reports(verif_results)],
        }

    fuzz_results = campaign.by_family("fuzz")
    if fuzz_results:
        findings = []
        seeds_run: list[int] = []
        seeds_skipped: list[int] = []
        for result in fuzz_results:
            payload = result.payload
            findings.extend(payload.get("findings", ()))
            if "seeds_run" in payload:
                seeds_run.extend(payload["seeds_run"])
            else:
                # The cell never ran (budget, ^C) or never reported (a
                # killed worker): every seed it owned is un-run, and
                # silently dropping them would turn it into a pass.
                seeds_skipped.extend(_cell_seeds(result.key))
        findings.sort(key=lambda f: (f["seed"], f["offload"]))
        aggregate["fuzz"] = {
            "seeds_run": sorted(seeds_run),
            "seeds_skipped": sorted(set(seeds_skipped)),
            "findings": findings,
        }

    covfuzz_results = campaign.by_family("covfuzz")
    if covfuzz_results:
        from repro.coverage import CoverageMap

        union = CoverageMap()
        kept: dict[str, dict] = {}
        covfuzz_findings = []
        replayed = executed = 0
        for result in covfuzz_results:  # sorted by key: deterministic
            payload = result.payload
            if "coverage" in payload:
                union.union(CoverageMap.from_doc(payload["coverage"]))
            for item in payload.get("kept", ()):
                kept[item["digest"]] = item["entry"]
            covfuzz_findings.extend(payload.get("findings", ()))
            replayed += payload.get("replayed", 0)
            executed += payload.get("executed", 0)
        covfuzz_findings.sort(
            key=lambda f: f["bundle"]["signature"]["digest"]
        )
        # The bitmap/path union is commutative and associative, so the
        # aggregate coverage document — digest included — is identical
        # at any worker count and any cell completion order.
        aggregate["covfuzz"] = {
            "replayed": replayed,
            "executed": executed,
            "kept": [{"digest": digest, "entry": kept[digest]}
                     for digest in sorted(kept)],
            "coverage": union.to_doc(),
            "coverage_digest": union.digest(),
            "report": union.report(),
            "findings": covfuzz_findings,
        }

    chaos_results = campaign.by_family("chaos")
    if chaos_results:
        aggregate["chaos"] = {
            "results": [
                dict(result.payload, key=result.key, status=result.status)
                for result in chaos_results
            ],
        }

    aggregate["timing"] = {
        "workers": campaign.workers,
        "interrupted": campaign.interrupted,
        "wall_seconds": campaign.wall_seconds,
        "cells_per_second": (
            counts["total"] / campaign.wall_seconds
            if campaign.wall_seconds > 0 else 0.0
        ),
        "cells": timing_cells,
    }
    return aggregate


def _cell_seeds(key: str) -> range:
    """The seed range a fuzz cell key names (``fuzz:...:s00000-00008``)."""
    tail = key.rsplit(":", 1)[-1]
    if tail.startswith("s") and "-" in tail:
        lo, _, hi = tail[1:].partition("-")
        if lo.isdigit() and hi.isdigit():
            return range(int(lo), int(hi))
    return range(0)


def fold_kept(aggregate: dict, corpus_dir: Optional[str]) -> tuple[int, int]:
    """Fold a covfuzz aggregate's kept inputs into the corpus at
    ``corpus_dir`` (in memory when None); returns its entry counts
    before and after.  One single-process write after the merge, so the
    on-disk corpus is the same at any worker count."""
    from repro.coverage import Corpus

    corpus = Corpus(corpus_dir)
    before = len(corpus)
    for item in aggregate["covfuzz"]["kept"]:
        corpus.add_entry(item["entry"])
    return before, len(corpus)


def canonical_aggregate(aggregate: dict) -> dict:
    """The deterministic portion: everything except ``"timing"``."""
    return {key: value for key, value in aggregate.items() if key != "timing"}


def canonical_json(aggregate: dict) -> str:
    """Byte-stable serialization of the canonical aggregate.

    Two campaigns over the same cell matrix produce identical strings
    here regardless of worker count — the determinism tests and the
    scaling benchmark compare these bytes directly.
    """
    return json.dumps(canonical_aggregate(aggregate), sort_keys=True,
                      separators=(",", ":")) + "\n"


def exit_code(aggregate: dict) -> int:
    """Process exit status for a campaign: 0 clean, 1 failures, 3 when
    the run is incomplete (a SIGINT drain, or skipped cells).
    Incompleteness wins over failure: a partial aggregate's verdict is
    not final, so callers must rerun before trusting a 1-vs-0 answer."""
    if aggregate.get("timing", {}).get("interrupted"):
        return 3
    counts = aggregate["counts"]
    if counts["fail"] or counts["error"] or counts["timeout"]:
        return 1
    if counts["skipped"]:
        return 3
    return 0
