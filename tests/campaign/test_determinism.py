"""ISSUE 6 satellite 4: byte-identical aggregates at any worker count.

The same (families, seeds, shards) matrix run at 1, 2, and 4 workers
must yield byte-identical aggregate reports.  The canonical aggregate
excludes only the ``"timing"`` key (wall clock, attempts, worker ids);
everything else — merged verification reports, fuzz findings, chaos
summaries, per-cell statuses — must match to the byte.
"""

import json

import pytest

from repro.campaign import (
    canonical_aggregate,
    canonical_json,
    chaos_cells,
    fuzz_cells,
    merge_campaign,
    merged_check_reports,
    run_campaign,
    verif_cells,
)
from repro.verif.routing import routing_space


def _mini_matrix():
    """A small but three-family matrix: every merge path is exercised."""
    return (
        verif_cells(states=2)
        + fuzz_cells(start=50, count=4, chunk=2, length=20)
        + chaos_cells(firmwares=("zephyr",), plans=("none", "flaky-uart"),
                      seeds=(3,))
    )


@pytest.fixture(scope="module")
def aggregates():
    cells = _mini_matrix()
    return {
        workers: merge_campaign(run_campaign(cells, workers=workers,
                                             timeout=60.0))
        for workers in (1, 2, 4)
    }


class TestByteIdenticalAggregates:
    def test_canonical_json_identical_across_worker_counts(self, aggregates):
        serial = canonical_json(aggregates[1])
        assert canonical_json(aggregates[2]) == serial
        assert canonical_json(aggregates[4]) == serial

    def test_timing_is_the_only_noncanonical_key(self, aggregates):
        for aggregate in aggregates.values():
            canonical = canonical_aggregate(aggregate)
            assert "timing" not in canonical
            assert set(aggregate) - set(canonical) == {"timing"}

    def test_aggregate_is_json_round_trippable(self, aggregates):
        text = canonical_json(aggregates[2])
        assert json.loads(text) == canonical_aggregate(aggregates[2])

    def test_mini_matrix_is_clean(self, aggregates):
        counts = aggregates[1]["counts"]
        assert counts["total"] == counts["ok"], aggregates[1]["failures"]

    def test_merged_verif_totals_match_whole_space(self, aggregates):
        # Sharded chunks must add up to the un-sharded sweep sizes:
        # 64 mip selectors x 40 interrupt cases for virtual-interrupt,
        # the whole routing space for interrupt-routing, and the full
        # pmp_config_space for faithful-execution.
        reports = {r["task"]: r for r in aggregates[1]["verif"]["reports"]}
        assert reports["virtual-interrupt"]["inputs_checked"] == 64 * 40
        assert reports["interrupt-routing"]["inputs_checked"] == sum(
            1 for _ in routing_space())
        assert reports["faithful-execution"]["inputs_checked"] > 0
        assert reports["faithful-emulation"]["inputs_checked"] > 0

    def test_fuzz_seeds_fully_accounted(self, aggregates):
        fuzz = aggregates[4]["fuzz"]
        assert fuzz["seeds_run"] == list(range(50, 54))
        assert fuzz["seeds_skipped"] == []

    def test_chaos_results_sorted_by_key(self, aggregates):
        keys = [entry["key"] for entry in aggregates[2]["chaos"]["results"]]
        assert keys == sorted(keys)


class TestMergedCheckReports:
    def test_order_matches_verify_output(self, aggregates):
        tasks = [r["task"] for r in aggregates[1]["verif"]["reports"]]
        assert tasks == ["faithful-emulation", "virtual-interrupt",
                         "interrupt-routing", "faithful-execution"]

    def test_merged_reports_from_results(self):
        cells = [cell for cell in verif_cells(states=2)
                 if cell.param_dict()["subspace"] == "interrupts"]
        campaign = run_campaign(cells, workers=2)
        (report,) = merged_check_reports(campaign.results)
        assert report.task == "virtual-interrupt"
        assert report.passed
        assert report.inputs_checked == 64 * 40
