"""Red-first tests for graceful ^C handling (triage satellite S2).

Previously a SIGINT during ``repro campaign`` tore down the pool with a
raw ``KeyboardInterrupt`` traceback and wrote nothing.  Now the runner
drains in-flight cells, marks the rest ``skipped``, the aggregate still
gets written, and the process exits 3.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import (
    CampaignCell,
    exit_code,
    merge_campaign,
    register_family,
    run_campaign,
)


def _slow_family(params):
    time.sleep(params.get("delay", 0.2))
    return "ok", {"i": params["i"]}


def _marker_family(params):
    time.sleep(params["delay"])
    if "marker" in params:
        with open(params["marker"], "w"):
            pass
    return "ok", {}


def _fire_sigint(after):
    timer = threading.Timer(after,
                            lambda: os.kill(os.getpid(), signal.SIGINT))
    timer.daemon = True
    timer.start()
    return timer


class TestInProcessDrain:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigint_drains_and_skips(self, workers):
        register_family("sigint-slow", _slow_family)
        cells = [CampaignCell.make("sigint-slow", f"slow:{index:03d}",
                                   i=index, delay=0.2)
                 for index in range(10)]
        timer = _fire_sigint(0.5)
        try:
            campaign = run_campaign(cells, workers=workers,
                                    handle_sigint=True)
        finally:
            timer.cancel()
        assert campaign.interrupted
        statuses = [result.status for result in campaign.results]
        assert statuses.count("ok") >= 1  # in-flight cells drained
        skipped = [result for result in campaign.results
                   if result.status == "skipped"]
        assert skipped  # the tail never ran
        assert all("SIGINT" in result.error for result in skipped)
        # All cells are accounted for, none lost mid-drain.
        assert len(campaign.results) == len(cells)

        aggregate = merge_campaign(campaign)
        assert aggregate["timing"]["interrupted"] is True
        assert exit_code(aggregate) == 3

    def test_handler_restored_after_run(self):
        register_family("sigint-slow", _slow_family)
        cells = [CampaignCell.make("sigint-slow", "slow:000", i=0,
                                   delay=0.01)]
        before = signal.getsignal(signal.SIGINT)
        run_campaign(cells, workers=1, handle_sigint=True)
        assert signal.getsignal(signal.SIGINT) is before

    def test_uninterrupted_run_exits_zero(self):
        register_family("sigint-slow", _slow_family)
        cells = [CampaignCell.make("sigint-slow", "slow:000", i=0,
                                   delay=0.01)]
        campaign = run_campaign(cells, workers=1, handle_sigint=True)
        assert not campaign.interrupted
        assert exit_code(merge_campaign(campaign)) == 0


class TestStalledCellDrain:
    def test_drain_stops_a_stalled_cell_after_the_grace(self, monkeypatch):
        """Red-first: the drain used to wait for every in-flight cell, so a
        stalled one held ^C for the whole per-cell timeout."""
        from repro.campaign import runner

        monkeypatch.setattr(runner, "SIGINT_GRACE_SECONDS", 0.5)
        register_family("sigint-slow", _slow_family)
        cells = [CampaignCell.make("sigint-slow", "slow:000", i=0,
                                   delay=60.0)]
        cells += [CampaignCell.make("sigint-slow", f"slow:{index:03d}",
                                    i=index, delay=0.2)
                  for index in range(1, 8)]
        timer = _fire_sigint(0.5)
        start = time.monotonic()
        try:
            campaign = run_campaign(cells, workers=2, handle_sigint=True)
        finally:
            timer.cancel()
        assert time.monotonic() - start < runner.SIGINT_GRACE_SECONDS + 5
        assert campaign.interrupted
        assert len(campaign.results) == len(cells)
        stalled = next(result for result in campaign.results
                       if result.key == cells[0].key)
        assert stalled.status == "skipped"
        assert stalled.error == "campaign interrupted (SIGINT) while running"
        assert exit_code(merge_campaign(campaign)) == 3

    def test_a_result_queued_when_the_grace_ends_is_kept(self, tmp_path,
                                                          monkeypatch):
        """Red-first: the grace used to end by killing the worker without
        reading the results queue, so a cell whose "done" was already
        queued was reported as skipped."""
        from repro.campaign import runner
        from repro.campaign.cells import shard_of

        monkeypatch.setattr(runner, "SIGINT_GRACE_SECONDS", 0.0)
        register_family("sigint-marker", _marker_family)
        marker = tmp_path / "late.finished"
        fast = CampaignCell.make("sigint-marker", "drain:fast", delay=0.0)
        late = CampaignCell.make("sigint-marker", "drain:late", delay=0.3,
                                 marker=str(marker))
        assert shard_of(fast.key, 2) != shard_of(late.key, 2)

        def progress(result):
            # Hold the parent (so it reads nothing) until the late cell
            # has finished and its "done" is queued, then interrupt: the
            # drain's grace is already over when it first looks.
            if result.key != fast.key:
                return
            give_up = time.monotonic() + 30
            while not marker.exists() and time.monotonic() < give_up:
                time.sleep(0.02)
            time.sleep(0.5)
            os.kill(os.getpid(), signal.SIGINT)

        campaign = run_campaign([fast, late], workers=2, progress=progress,
                                handle_sigint=True)
        assert campaign.interrupted
        statuses = {result.key: result.status for result in campaign.results}
        assert statuses == {fast.key: "ok", late.key: "ok"}


class TestCliSigint:
    def test_cli_writes_partial_aggregate_and_exits_3(self, tmp_path):
        out = tmp_path / "aggregate.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        # ~800 cells at ~20ms each: comfortably mid-flight when the
        # interrupt lands 2 seconds in.
        seeds = ",".join(str(seed) for seed in range(800))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign",
             "--families", "chaos",
             "--chaos-firmwares", "opensbi",
             "--chaos-plans", "csr-chaos",
             "--chaos-seeds", seeds,
             "--workers", "2",
             "--json", str(out)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        time.sleep(2.0)
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 3, (stdout, stderr)
        assert out.exists(), "partial aggregate must still be written"

        aggregate = json.loads(out.read_text())
        assert aggregate["timing"]["interrupted"] is True
        skipped = [cell for cell in aggregate["cells"]
                   if cell["status"] == "skipped"]
        assert skipped, "interrupt arrived before the matrix finished"
        assert b"Traceback" not in stderr

    def test_fuzz_drains_between_seeds_and_exits_3(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        # One seed per cell at tens of ms each: the interrupt lands
        # mid-sweep and the seed in flight is the last one run.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fuzz",
             "--count", "5000", "--length", "20"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        time.sleep(2.0)
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 3, (stdout, stderr)
        out = stdout.decode()
        assert "campaign interrupted (SIGINT)" in out
        assert "seed(s) skipped" in out
        assert "campaign budget hit" not in out
        assert b"Traceback" not in stderr


class TestSerialSecondSigint:
    def test_second_sigint_stops_the_cell_in_flight(self):
        # A serial run has no worker to terminate: the first ^C waits
        # for the cell in flight, the second stops it.
        register_family("sigint-slow", _slow_family)
        cells = [CampaignCell.make("sigint-slow", "slow:000", i=0,
                                   delay=10.0)]
        timers = [_fire_sigint(0.2), _fire_sigint(0.5)]
        start = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(cells, handle_sigint=True)
        finally:
            for timer in timers:
                timer.cancel()
        assert time.monotonic() - start < 5.0
