"""Sharded campaign execution: a multiprocessing worker pool.

``run_campaign`` executes a list of :class:`CampaignCell`\\ s either
serially in-process (``workers=1`` — the baseline, and the only mode
with zero isolation overhead) or across ``workers`` OS processes.  The
pool is organised around *shards*, not a shared work queue: every cell
is assigned to a shard by :func:`repro.campaign.cells.shard_of`, a pure
function of the cell key, so the distribution of work is identical on
every run regardless of completion order or machine speed.

Failure containment is per cell:

* a cell whose runner **raises** is reported as a structured
  ``status="error"`` result (workers catch everything — a traceback
  never crosses the pool);
* a cell that exceeds the per-cell **timeout** gets its worker
  terminated, one **retry** in a fresh process, and — if it hangs
  again — a ``status="timeout"`` result, while the rest of its shard
  continues in a respawned worker;
* a worker process that **dies** outright (signal, interpreter abort)
  is detected by the parent and handled like a timeout.

A campaign-level ``budget_seconds`` deadline stops dispatching and marks
every unfinished cell ``status="skipped"``: an aborted campaign is
visibly incomplete, never a silent pass.  It is the only sweep budget —
``repro fuzz --budget`` runs one seed per cell, so the deadline falls
between seeds.

With ``handle_sigint=True`` the same incomplete-is-visible rule covers
a ^C: instead of a KeyboardInterrupt traceback that loses every
completed cell, the parent **drains** — in-flight cells get
:data:`SIGINT_GRACE_SECONDS` to finish, after which their workers are
terminated and the cells marked ``skipped`` too; nothing new is
dispatched, the remaining cells are marked ``skipped``, and the partial
result comes back with ``interrupted=True`` so the CLI can still write
its aggregate and exit with the incomplete status (3).  Workers ignore
SIGINT themselves: a terminal ^C signals the whole process group, and
the drain decision belongs to the parent alone.  A serial run has no
worker to terminate, so there a second ^C raises ``KeyboardInterrupt``
in the in-flight cell instead of waiting for it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_module
import signal
import time
from collections import deque
from typing import Callable, Iterable, Optional

from repro.campaign.cells import CampaignCell, execute_cell, shard_of

#: Default per-cell wall timeout (parallel mode).  Generous against the
#: slowest legitimate cell (a long SMP chaos boot) while bounding a hang.
DEFAULT_TIMEOUT_SECONDS = 120.0

#: How long a SIGINT drain waits for in-flight cells (parallel mode)
#: before terminating their workers: ^C must return within seconds even
#: when a cell has stalled.
SIGINT_GRACE_SECONDS = 5.0

#: Fresh-process retries a timed-out or crashed cell gets before it is
#: reported as ``timeout`` (or ``error``).
CELL_RETRIES = 1

_TERMINAL = ("ok", "fail", "error", "timeout", "skipped")


@dataclasses.dataclass
class CellResult:
    """Structured outcome of one cell (always produced, never raised)."""

    key: str
    family: str
    status: str  # one of _TERMINAL
    payload: dict = dataclasses.field(default_factory=dict)
    error: Optional[str] = None
    attempts: int = 1
    elapsed_seconds: float = 0.0
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclasses.dataclass
class CampaignResult:
    """All cell results plus run-level metadata."""

    results: list[CellResult]
    workers: int
    wall_seconds: float = 0.0
    #: True when a SIGINT drained the run early (``handle_sigint=True``);
    #: every cell still has a result — unfinished ones are ``skipped``.
    interrupted: bool = False

    def counts(self) -> dict:
        counts = {status: 0 for status in _TERMINAL}
        for result in self.results:
            counts[result.status] += 1
        counts["total"] = len(self.results)
        return counts

    def by_family(self, family: str) -> list[CellResult]:
        return [r for r in self.results if r.family == family]


def _execute_one(cell: CampaignCell, worker: Optional[int]) -> CellResult:
    """Run a cell, converting any exception into a structured result."""
    start = time.perf_counter()
    try:
        status, payload = execute_cell(cell)
        return CellResult(
            key=cell.key, family=cell.family, status=status, payload=payload,
            elapsed_seconds=time.perf_counter() - start, worker=worker,
        )
    except Exception as exc:  # noqa: BLE001 — containment is the contract
        return CellResult(
            key=cell.key, family=cell.family, status="error",
            error=f"{type(exc).__name__}: {exc}",
            elapsed_seconds=time.perf_counter() - start, worker=worker,
        )


def _shard_main(worker_id: int, cells: list[CampaignCell], results,
                ignore_sigint: bool = False) -> None:
    """Worker entry point: run the shard's cells in key order."""
    if ignore_sigint:
        # A terminal ^C hits the whole process group; the parent owns
        # the drain decision, so workers must not die mid-cell to it.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    for cell in cells:
        results.put(("start", worker_id, cell.key, None))
        results.put(("done", worker_id, cell.key,
                     _execute_one(cell, worker_id)))
    results.put(("exit", worker_id, None, None))


class _Worker:
    """Parent-side bookkeeping for one shard worker."""

    def __init__(self, worker_id: int, cells: list[CampaignCell],
                 ignore_sigint: bool = False):
        self.worker_id = worker_id
        self.pending: deque[CampaignCell] = deque(cells)
        self.process = None
        self.current: Optional[str] = None
        self.started_at: float = 0.0
        self.exited = False
        self.ignore_sigint = ignore_sigint

    def spawn(self, ctx, results) -> None:
        self.current = None
        self.exited = False
        self.process = ctx.Process(
            target=_shard_main,
            args=(self.worker_id, list(self.pending), results,
                  self.ignore_sigint),
            daemon=True,
        )
        self.process.start()

    def kill(self) -> None:
        if self.process is None or not self.process.is_alive():
            return
        self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # wedged in a signal-proof state
            self.process.kill()
            self.process.join(timeout=2.0)


def _campaign_context():
    # fork keeps registered test families and keeps startup cheap; fall
    # back to the platform default where fork does not exist.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_campaign(cells: Iterable[CampaignCell], workers: int = 1,
                 timeout: float = DEFAULT_TIMEOUT_SECONDS,
                 budget_seconds: Optional[float] = None,
                 progress: Optional[Callable[[CellResult], None]] = None,
                 handle_sigint: bool = False,
                 ) -> CampaignResult:
    """Run ``cells`` on ``workers`` processes; always returns every cell.

    Cells are executed in key order within each shard; results are
    keyed and merged by cell key, so the outcome is independent of
    worker count and completion order (see :mod:`repro.campaign.merge`).

    ``handle_sigint=True`` (CLI runs, main thread only) converts ^C
    into a graceful drain: in-flight cells get
    :data:`SIGINT_GRACE_SECONDS` to finish, the rest are marked
    ``skipped``, and the result carries ``interrupted=True``.
    """
    ordered = sorted(cells, key=lambda cell: cell.key)
    if len({cell.key for cell in ordered}) != len(ordered):
        raise ValueError("duplicate cell keys in campaign")
    start = time.monotonic()
    deadline = None if budget_seconds is None else start + budget_seconds
    interrupted = _InterruptFlag()
    previous_handler = None
    if handle_sigint:
        previous_handler = signal.signal(
            signal.SIGINT,
            interrupted.trip if workers > 1 else interrupted.trip_or_raise,
        )
    try:
        if workers <= 1:
            results = _run_serial(ordered, deadline, progress, interrupted)
        else:
            results = _run_pool(ordered, workers, timeout, deadline,
                                progress, interrupted, handle_sigint)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
    results.sort(key=lambda r: r.key)
    return CampaignResult(results=results, workers=max(1, workers),
                          wall_seconds=time.monotonic() - start,
                          interrupted=interrupted.tripped)


class _InterruptFlag:
    """Signal-handler-safe latch; doubles as a no-op when not installed."""

    def __init__(self):
        self.tripped = False

    def trip(self, signum=None, frame=None) -> None:
        self.tripped = True

    def trip_or_raise(self, signum=None, frame=None) -> None:
        """The serial handler: a serial run's in-flight cell cannot be
        stopped from outside, so a second ^C raises in it."""
        if self.tripped:
            raise KeyboardInterrupt
        self.tripped = True


def _skipped(cell: CampaignCell, interrupted: bool = False) -> CellResult:
    reason = ("campaign interrupted (SIGINT) before this cell ran"
              if interrupted
              else "campaign budget exhausted before this cell ran")
    return CellResult(key=cell.key, family=cell.family, status="skipped",
                      error=reason)


def _run_serial(ordered, deadline, progress, interrupted) -> list[CellResult]:
    results = []
    for index, cell in enumerate(ordered):
        if interrupted.tripped:
            results.extend(_skipped(c, interrupted=True)
                           for c in ordered[index:])
            break
        if deadline is not None and time.monotonic() >= deadline:
            results.extend(_skipped(c) for c in ordered[index:])
            break
        result = _execute_one(cell, worker=None)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def _run_pool(ordered, workers, timeout, deadline,
              progress, interrupted, handle_sigint=False) -> list[CellResult]:
    ctx = _campaign_context()
    results_queue = ctx.Queue()
    shards: dict[int, list[CampaignCell]] = {}
    for cell in ordered:
        shards.setdefault(shard_of(cell.key, workers), []).append(cell)
    pool = {wid: _Worker(wid, cells, ignore_sigint=handle_sigint)
            for wid, cells in shards.items()}
    attempts: dict[str, int] = {cell.key: 0 for cell in ordered}
    finished: dict[str, CellResult] = {}
    for worker in pool.values():
        worker.spawn(ctx, results_queue)

    def record(result: CellResult) -> None:
        if result.key in finished:  # late message from a killed worker
            return
        if result.attempts <= 1:  # worker-side results don't know retries
            result.attempts = attempts.get(result.key, 0) + 1
        finished[result.key] = result
        if progress is not None:
            progress(result)

    def fail_current(worker: _Worker, status: str, message: str) -> None:
        """Timeout/crash handling for the worker's in-flight cell."""
        worker.kill()
        cell = worker.pending[0] if worker.pending else None
        if cell is not None and cell.key == worker.current:
            attempts[cell.key] += 1
            if attempts[cell.key] > CELL_RETRIES:
                worker.pending.popleft()
                record(CellResult(
                    key=cell.key, family=cell.family, status=status,
                    error=message, attempts=attempts[cell.key],
                    worker=worker.worker_id,
                ))
        worker.current = None
        if worker.pending and not interrupted.tripped:
            worker.spawn(ctx, results_queue)
        else:
            worker.exited = True

    def stop_running(worker: _Worker) -> None:
        """End a drain's grace: terminate the worker, skip its cell."""
        worker.kill()
        worker.exited = True
        cell = worker.pending[0] if worker.pending else None
        if cell is not None and cell.key == worker.current:
            record(CellResult(
                key=cell.key, family=cell.family, status="skipped",
                error="campaign interrupted (SIGINT) while running",
                worker=worker.worker_id,
            ))

    def handle(kind: str, wid: int, key: str, payload) -> None:
        """Apply one message from a worker."""
        worker = pool[wid]
        if kind == "start":
            if key in finished:
                return  # stale line from a killed predecessor process
            worker.current = key
            worker.started_at = time.monotonic()
        elif kind == "done":
            record(payload)
            if worker.pending and worker.pending[0].key == key:
                worker.pending.popleft()
            if worker.current == key:
                worker.current = None
            if interrupted.tripped:
                # The in-flight cell just drained; this worker is done.
                worker.kill()
                worker.exited = True
        elif kind == "exit":
            if not worker.pending:
                worker.exited = True
                worker.process.join(timeout=2.0)

    drain_deadline = None
    while any(not worker.exited for worker in pool.values()):
        if deadline is not None and time.monotonic() >= deadline:
            for worker in pool.values():
                if not worker.exited:
                    worker.kill()
                    worker.exited = True
            break
        if interrupted.tripped:
            # Drain: idle workers stop now; a worker with an in-flight
            # cell keeps running until its "done" arrives or the grace
            # runs out — finished work is never thrown away, a stalled
            # cell cannot hold ^C hostage, and nothing new is dispatched.
            # What has already arrived is read before anything is
            # killed, so a cell that finished in the last poll window is
            # a result, not a skip.
            while True:
                try:
                    handle(*results_queue.get_nowait())
                except queue_module.Empty:
                    break
            now = time.monotonic()
            if drain_deadline is None:
                drain_deadline = now + SIGINT_GRACE_SECONDS
            for worker in pool.values():
                if worker.exited:
                    continue
                if worker.current is None:
                    worker.kill()
                    worker.exited = True
                elif now >= drain_deadline:
                    stop_running(worker)
            if all(worker.exited for worker in pool.values()):
                break
        try:
            kind, wid, key, payload = results_queue.get(timeout=0.05)
        except queue_module.Empty:
            now = time.monotonic()
            for worker in pool.values():
                if worker.exited:
                    continue
                if (worker.current is not None
                        and now - worker.started_at > timeout):
                    fail_current(
                        worker, "timeout",
                        f"cell exceeded {timeout:.1f}s wall timeout "
                        f"(attempt {attempts[worker.current] + 1})",
                    )
                elif (worker.process is not None
                      and not worker.process.is_alive()):
                    # Died without its exit message: crashed mid-cell.
                    code = worker.process.exitcode
                    if worker.current is not None:
                        fail_current(worker, "error",
                                     f"worker died (exitcode {code})")
                    elif worker.pending and not interrupted.tripped:
                        worker.spawn(ctx, results_queue)
                    else:
                        worker.exited = True
            continue
        handle(kind, wid, key, payload)

    results = list(finished.values())
    done_keys = set(finished)
    results.extend(_skipped(cell, interrupted=interrupted.tripped)
                   for cell in ordered if cell.key not in done_keys)
    results_queue.close()
    results_queue.cancel_join_thread()
    return results
