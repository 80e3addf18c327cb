"""Worker-pool behaviour: containment, timeout/retry, budget, no hangs.

ISSUE 6 satellite 4: "a worker that raises or times out surfaces as a
structured cell failure, never a traceback or a hang."  Every test here
drives the real multiprocessing pool with synthetic cell families.
"""

import pytest

from repro.campaign import (
    CampaignCell,
    register_family,
    run_campaign,
    stall_cells,
)


def _raising_runner(params):
    raise RuntimeError(f"deliberate cell failure {params['index']}")


def _ok_runner(params):
    return "ok", {"index": params["index"]}


@pytest.fixture(autouse=True)
def _synthetic_families():
    # fork workers inherit the registry, so registering here is enough.
    register_family("boom", _raising_runner)
    register_family("fine", _ok_runner)
    yield


def _cells(family, count):
    return [CampaignCell.make(family, f"{family}:{index:03d}", index=index)
            for index in range(count)]


class TestContainment:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_cell_is_structured_error(self, workers):
        campaign = run_campaign(_cells("boom", 1) + _cells("fine", 3),
                                workers=workers, timeout=30.0)
        by_key = {r.key: r for r in campaign.results}
        boom = by_key["boom:000"]
        assert boom.status == "error"
        assert "RuntimeError: deliberate cell failure 0" in boom.error
        # The failure is contained: every other cell still ran.
        for index in range(3):
            assert by_key[f"fine:{index:03d}"].status == "ok"
        assert campaign.counts() == {
            "ok": 3, "fail": 0, "error": 1, "timeout": 0, "skipped": 0,
            "total": 4,
        }

    def test_every_cell_gets_exactly_one_result(self):
        cells = _cells("fine", 9) + _cells("boom", 3)
        campaign = run_campaign(cells, workers=3, timeout=30.0)
        assert sorted(r.key for r in campaign.results) == \
            sorted(c.key for c in cells)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(_cells("fine", 2) + _cells("fine", 2))


class TestTimeoutAndRetry:
    def test_hung_cell_times_out_with_one_retry(self):
        # One cell sleeps far beyond the per-cell timeout: the pool must
        # kill it, retry once in a fresh process, then report a
        # structured "timeout" — all while the rest of the shard runs.
        hung = stall_cells(1, 30.0, label="hang")
        quick = _cells("fine", 3)
        campaign = run_campaign(hung + quick, workers=2, timeout=0.5)
        by_key = {r.key: r for r in campaign.results}
        result = by_key["stall:hang:000"]
        assert result.status == "timeout"
        assert result.attempts == 2  # initial run + exactly one retry
        assert "timeout" in result.error
        for index in range(3):
            assert by_key[f"fine:{index:03d}"].status == "ok"

    def test_pool_never_hangs_on_timeout(self):
        # Wall time bounds: ~timeout * (retries + 1) + slack, never the
        # 30 s the hung cell would take.
        campaign = run_campaign(stall_cells(1, 30.0, label="wall"),
                                workers=2, timeout=0.4)
        assert campaign.wall_seconds < 10.0
        assert campaign.results[0].status == "timeout"


class TestBudget:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_marks_unfinished_cells_skipped(self, workers):
        cells = stall_cells(6, 0.3, label="budget")
        campaign = run_campaign(cells, workers=workers, timeout=30.0,
                                budget_seconds=0.45)
        counts = campaign.counts()
        assert counts["skipped"] >= 1  # budget cut the campaign short
        assert counts["total"] == 6  # ...but every cell is accounted for
        for result in campaign.results:
            if result.status == "skipped":
                assert "budget" in result.error
