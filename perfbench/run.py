"""Repo benchmark: the Fig. 12 trap mix with offload on and off, and the
chaos matrix, timed end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload memcached-offload --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
ops untraced, traced and under cProfile and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("memcached-offload", "memcached-reinject", "chaos-matrix")

#: Rounds a run makes at least, whatever ``--seconds`` says, so that
#: every op and cell has several timings to take the fast ones from.
MIN_ROUNDS = 3

#: Table 5 (VisionFive 2): host-visible cost of reading ``time``.
PAPER_TIME_READ_NS = {"memcached-offload": 208.0,
                      "memcached-reinject": 7_260.0}
#: Table 4 (VisionFive 2): world-switch round trip.
PAPER_WORLD_SWITCH_CYCLES = 2_704.0

#: Largest allowed gap between a layer's share of op time from the spans
#: and from the cProfile roll-up.
PROFILE_SHARE_BOUND = 0.15

#: Traced and profiled chaos cells run slower (about 1.6x and 3x); their
#: bound is scaled by this much.
TRACED_BOUND_SCALE = 5.0

CALIBRATED = "other simulated figures: calibrated, not validated"

#: What set-up imports, per workload.  ``run_chaos`` imports firmware,
#: policy and snapshot modules on first use, so the chaos matrix imports
#: the whole simulator in set-up rather than in its first cell.
SETUP_IMPORTS = {
    "memcached-offload": "from perfbench import trapmix",
    "memcached-reinject": "from perfbench import trapmix",
    "chaos-matrix": ("from perfbench import chaos, spans; "
                     "spans.import_package('repro')"),
}

#: Fresh interpreters whose import time set-up takes the median of.
IMPORT_SAMPLES = 5

#: Times ``SETUP_IMPORTS`` in a fresh interpreter, at the reference pace.
_IMPORT_PROBE = """
import sys
from time import perf_counter
sys.path[:0] = sys.argv[1:3]
from perfbench import pace
before = pace.reading()
start = perf_counter()
{statement}
seconds = perf_counter() - start
print(seconds * pace.scale(before, pace.reading()))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def another_round_fits(start: float, round_start: float, seconds: float,
                       rounds: int) -> bool:
    """Whether to run another round: fewer than MIN_ROUNDS so far, or one
    as long as the last still ends within ``seconds`` of ``start``."""
    now = perf_counter()
    return rounds < MIN_ROUNDS or now + (now - round_start) <= start + seconds


def paced_median(rounds, seconds) -> float:
    """Median over ``rounds`` of ``seconds(round)`` at the reference pace
    (see :mod:`perfbench.pace`)."""
    return statistics.median(seconds(result) * result.pace
                             for result in rounds)


def _pace_line(scales) -> str:
    from perfbench import pace

    return (f"pace: host seconds x {statistics.median(scales):.4f} "
            f"(median; {min(scales):.4f}-{max(scales):.4f}) = seconds at "
            f"the reference pace ({pace.REFERENCE_S * 1e3:g} ms per "
            f"reference pass)")


def import_seconds(workload: str) -> float:
    """Median import time of ``workload``'s set-up at the reference pace,
    over IMPORT_SAMPLES fresh interpreters run one after another.

    A process imports once, so one in-process sample per run made
    ``setup_s`` spread 0.24-0.37 (IQR over median) across runs.
    """
    probe = _IMPORT_PROBE.format(statement=SETUP_IMPORTS[workload])
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", probe, str(SRC), str(ROOT)],
            capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def hit_ratio(counters: dict) -> float:
    hits, misses = counters.get("hits", 0), counters.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def add_counters(total: dict, delta: dict) -> None:
    for name, counters in delta.items():
        merged = total.setdefault(name, {"hits": 0, "misses": 0})
        merged["hits"] += counters.get("hits", 0)
        merged["misses"] += counters.get("misses", 0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(metrics: dict, attempted: int, failed: int,
            errors: list) -> dict:
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# Trap-mix workloads
# ---------------------------------------------------------------------------


class TrapMixRun:
    """The rounds of one trap-mix run and the checks on them."""

    def __init__(self, workload: str, seed: int):
        from perfbench import trapmix

        self.trapmix = trapmix
        self.workload = workload
        self.kinds = trapmix.op_stream(seed)
        self.rounds = []
        self.errors: list[str] = []

    def run(self, rounds: int = 0, seconds: float = 0.0, hooks=None
            ) -> float:
        """Run ``rounds`` rounds, or else rounds within ``seconds``;
        returns the op seconds of the rounds run, at the reference pace."""
        from perfbench import pace

        start = perf_counter()
        done = []
        while True:
            round_start = perf_counter()
            before = pace.reading()
            result = self.trapmix.run_round(self.workload, self.kinds, hooks)
            result.pace = pace.scale(before, pace.reading())
            result.summarize(self.kinds)
            done.append(result)
            if rounds:
                if len(done) >= rounds:
                    break
            elif not another_round_fits(start, round_start, seconds,
                                        len(done)):
                break
        for result in done:
            for error in self.trapmix.round_errors(result, self.kinds):
                self.errors.append(f"round {len(self.rounds)}: {error}")
            self.rounds.append(result)
        return sum(result.op_s * result.pace for result in done)

    def digest(self) -> str:
        """The rounds' common sim digest (a disagreement is an error)."""
        digests = sorted({result.digest for result in self.rounds})
        if len(digests) != 1:
            self.errors.append(f"rounds disagree: {len(digests)} digests")
        return digests[0]

    def failed_ops(self) -> int:
        return sum(len(self.kinds) for result in self.rounds
                   if self.trapmix.round_errors(result, self.kinds))


def _paper_time_read(workload: str, result) -> list[str]:
    measured = result.kind_sim_ns["time"]
    paper = PAPER_TIME_READ_NS[workload]
    return [
        f"op.time.sim_ns: {measured:.1f} ns vs Table 5 {paper:g} ns "
        f"(error {100.0 * (measured - paper) / paper:+.1f}%)",
        CALIBRATED,
    ]


def trapmix_end_to_end(workload: str, seed: int, seconds: float,
                       import_s: float, out: list) -> dict:
    """Rounds within ``seconds`` after one untimed warm-up round.

    Every timing is taken per round, scaled to the reference pace, and
    reported as the median over the rounds (see :func:`paced_median`).
    """
    mix = TrapMixRun(workload, seed)
    mix.run(rounds=1)  # warm-up: fills the decode/encode caches
    warm = mix.rounds.pop()
    mix.run(seconds=seconds)
    rounds = mix.rounds
    ops = len(mix.kinds)
    timed = ops * len(rounds)
    first = rounds[0]
    failed = mix.failed_ops()
    metrics = {
        "setup_s": (import_s + paced_median(
            [warm] + rounds, lambda result: result.setup_s), "s"),
        "ops_per_s": (ops / paced_median(
            rounds, lambda result: result.op_s), "1/s"),
        "op_p50_us": (paced_median(
            rounds, lambda result: result.p50_s) * 1e6, "us"),
        "op_tail_us": (paced_median(
            rounds, lambda result: result.tail_s) * 1e6, "us"),
        "ok_ratio": (1.0 - failed / timed, "ratio"),
        "host_us_per_trap": (paced_median(
            rounds, lambda result: result.op_s / result.traps) * 1e6, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_cycles_per_op": (first.cycles / ops, "cycles"),
    }
    out.append(f"rounds: {len(rounds)} x {ops} ops ({timed} timed ops)")
    out.append(f"op_tail_us: p{first.tail_p:g} of each round's {ops} ops; "
               f"timings are medians over {len(rounds)} rounds")
    out.append(_pace_line([result.pace for result in rounds]))
    out.append(f"fail_ratio: {failed / timed}")
    out.append(f"traps_per_op: {first.traps / ops}")
    out.append(f"world_switches_per_op: {first.world_switches / ops}")
    out.append(f"sim_digest: {mix.digest()}")
    out.extend(_paper_time_read(workload, first))
    return _result(metrics, timed, failed, mix.errors)


# ---------------------------------------------------------------------------
# Chaos matrix
# ---------------------------------------------------------------------------


def chaos_digest(cells) -> str:
    doc = [[list(cell.key), cell.ok, cell.bounded, cell.digest]
           for cell in cells]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def chaos_end_to_end(seed: int, seconds: float, import_s: float,
                     out: list) -> dict:
    """Matrix rounds within ``seconds``.

    Each cell's host time is its median over rounds at the reference
    pace, and the latency and per-trap metrics are taken over those
    per-cell times.  A cell cut at its bound counts as failed in every
    round, but is run only in the first: its time measures the bound,
    not the simulator, so the timing metrics leave it out.
    """
    from perfbench import chaos
    from perfbench.stats import tail

    keys = chaos.matrix(seed)
    start = perf_counter()
    first, times = chaos.timed_cells(keys)
    cut = {cell.key: cell for cell in first if cell.bounded}
    runnable = [key for key in keys if key not in cut]
    cells = {cell.key: cell for cell in first}
    key_times = {cell.key: [t] for cell, t in zip(first, times)
                 if not cell.bounded}
    digest = chaos_digest(first)
    errors = []
    rounds = 1
    round_start = start
    while another_round_fits(start, round_start, seconds, rounds):
        round_start = perf_counter()
        done, times_again = chaos.timed_cells(runnable)
        rounds += 1
        for cell, t in zip(done, times_again):
            key_times[cell.key].append(t)
            if cell.digest != cells[cell.key].digest:
                errors.append(f"cell {cell.key} changed its digest")
    cell_s = {key: statistics.median(ts) for key, ts in key_times.items()}
    op_s = sum(cell_s.values())
    failed_keys = [cell for cell in first if not cell.ok]
    tail_p, tail_s = tail(list(cell_s.values()))
    metrics = {
        "setup_s": (import_s, "s"),
        "ops_per_s": (len(cell_s) / op_s, "1/s"),
        "op_p50_us": (statistics.median(cell_s.values()) * 1e6, "us"),
        "op_tail_us": (tail_s * 1e6, "us"),
        "ok_ratio": (1.0 - len(failed_keys) / len(keys), "ratio"),
        "host_us_per_trap": (
            op_s * 1e6 / sum(cells[key].traps for key in cell_s), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_cycles_per_op": (
            sum(cells[key].cycles for key in cell_s) / len(cell_s),
            "cycles"),
    }
    out.append(f"matrix: {len(keys)} cells x {rounds} rounds "
               f"(chaos seeds {chaos.chaos_seeds(seed)}; cut cells run "
               f"once)")
    out.append(_pace_line([cell.pace for cell in first]))
    out.append(f"op_tail_us: p{tail_p:g} of {len(cell_s)} completed "
               f"cells' median times")
    out.append(f"fail_ratio: {len(failed_keys) / len(keys)}")
    for cell in first:
        if not cell.ok:
            out.append(f"failed cell {cell.key}: "
                       f"{cell.error or 'robustness contract not met'}")
    out.append(f"sim_digest: {digest}")
    out.append(CALIBRATED)
    attempted = rounds * len(keys)
    return _result(metrics, attempted, 0, errors)


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------


def _layer_metrics(recorder) -> dict:
    ops = recorder.ops
    metrics = {}
    for layer, total in recorder.layer_totals().items():
        calls = total["calls"]
        metrics[f"{layer}.calls_per_op"] = (calls / ops, "calls")
        metrics[f"{layer}.self_us_per_op"] = (
            total["self_s"] * 1e6 / ops, "us")
        metrics[f"{layer}.sim_cycles_per_call"] = (
            total["cycles"] / calls if calls else 0.0, "cycles")
    metrics["unattributed.self_us_per_op"] = (
        recorder.unattributed_s * 1e6 / ops, "us")
    metrics["core.offload.hit_ratio"] = (
        recorder.fastpath_hits / recorder.os_world_traps
        if recorder.os_world_traps else 0.0, "ratio")
    return metrics


def _cache_ratios(results) -> dict:
    counters: dict = {}
    for result in results:
        add_counters(counters, result.cache)
    names = {"isa.decoder": "isa.decode", "isa.encoding": "isa.encode",
             "bus.devices": "bus.devices", "hart.blocks": "hart.blocks"}
    return {f"{layer}.hit_ratio": (hit_ratio(counters.get(name, {})), "ratio")
            for layer, name in names.items()}


def _trace_checks(recorder, traps: int, hits: int, exact: bool,
                  errors: list, out: list) -> None:
    """Wrapper counts against the program's own counters."""
    record_calls = recorder.call_totals()["TrapStats.record_trap"].calls
    out.append(f"record_trap calls: {record_calls} (stats.total_traps "
               f"{traps}); offload hits {recorder.fastpath_hits} "
               f"(stats.fastpath_hits {hits})")
    if exact:
        if record_calls != traps or recorder.fastpath_hits != hits:
            errors.append("wrapper counts differ from stats counters")
    elif record_calls < traps or recorder.fastpath_hits < hits:
        errors.append("wrapper counts below stats counters")
    leftovers = recorder.leftover_wrappers()
    if leftovers:
        errors.append(f"wrappers left installed: {leftovers}")


def _profile_check(recorder, profile, errors: list, out: list) -> None:
    from perfbench import spans

    span_self = {layer: total["self_s"]
                 for layer, total in recorder.layer_totals().items()}
    profile_self, profile_total = spans.cprofile_layer_self(profile)
    error, layer = spans.share_error(span_self, recorder.op_s,
                                     profile_self, profile_total)
    out.append(f"cprofile share error: {error:.4f} (largest at {layer}; "
               f"bound {PROFILE_SHARE_BOUND})")
    if error > PROFILE_SHARE_BOUND:
        errors.append(f"span and cProfile shares differ by {error:.3f} "
                      f"at {layer}")


def _world_switch_line(recorder) -> str:
    calls = recorder.call_totals()
    enter_fw = calls["WorldSwitcher.enter_firmware"]
    enter_os = calls["WorldSwitcher.enter_os"]
    if not enter_fw.calls or not enter_os.calls:
        return "core.world_switch round trip: no world switches"
    round_trip = (enter_fw.cycles / enter_fw.calls
                  + enter_os.cycles / enter_os.calls)
    return (f"core.world_switch round trip: {round_trip:.0f} cycles "
            f"(enter_firmware + enter_os spans) vs Table 4 "
            f"{PAPER_WORLD_SWITCH_CYCLES:g} cycles (full OS->firmware->OS)")


def trapmix_traced(workload: str, seed: int, seconds: float,
                   out: list) -> dict:
    """A quarter of ``seconds`` of untraced rounds, then as many traced
    rounds, then one round under cProfile."""
    from perfbench import spans

    spans.import_package("repro")
    plain = TrapMixRun(workload, seed)
    plain.run(rounds=1)
    plain.rounds.clear()
    untraced_s = plain.run(seconds=seconds / 4)
    recorder = spans.SpanRecorder()
    traced = TrapMixRun(workload, seed)
    with spans.installed(recorder):
        traced_s = traced.run(rounds=len(plain.rounds), hooks=recorder)
    hooks = spans.ProfileHooks()
    TrapMixRun(workload, seed).run(rounds=1, hooks=hooks)

    errors = plain.errors + traced.errors
    _trace_checks(recorder, sum(r.traps for r in traced.rounds),
                  sum(r.fastpath_hits for r in traced.rounds), True,
                  errors, out)
    _profile_check(recorder, hooks.profile, errors, out)
    digests = (traced.digest(), plain.digest())
    if digests[0] != digests[1]:
        errors.append("traced and untraced sim_digest differ")

    metrics = _layer_metrics(recorder)
    metrics.update(_cache_ratios(traced.rounds))
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    first = plain.rounds[0]
    for kind in plain.trapmix.OP_KINDS:
        metrics[f"op.{kind}.p50_us"] = (paced_median(
            plain.rounds, lambda result: result.kind_p50_s[kind]) * 1e6,
            "us")
        metrics[f"op.{kind}.sim_ns"] = (first.kind_sim_ns[kind], "ns")
    out.append(f"traced: {len(traced.rounds)} rounds x {len(plain.kinds)} "
               f"ops, untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    out.append(f"world_switches_per_op: "
               f"{first.world_switches / len(plain.kinds)}")
    out.append(f"sim_digest: {digests[0]} (untraced {digests[1]})")
    out.extend(_paper_time_read(workload, first))
    out.append(_world_switch_line(recorder))
    return _result(metrics, recorder.ops, traced.failed_ops(), errors)


def chaos_traced(seed: int, out: list) -> dict:
    """The 32 cells of the drawn chaos seed: untraced, traced, and under
    cProfile."""
    from perfbench import chaos, spans
    from perfbench.trapmix import OP_KINDS

    spans.import_package("repro")
    drawn = chaos.chaos_seeds(seed)[-1]
    keys = [key for key in chaos.matrix(seed) if key[2] == drawn]
    bound_s = chaos.CELL_BOUND_S * TRACED_BOUND_SCALE
    plain, plain_times = chaos.timed_cells(keys, bound_s=bound_s)
    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        traced, traced_times = chaos.timed_cells(keys, recorder, bound_s)
    hooks = spans.ProfileHooks()
    chaos.timed_cells(keys, hooks, bound_s)

    errors: list[str] = []
    # A watchdog retry rewinds the machine's trap counters to the start
    # of the activation, so the wrapper counts may only exceed them.
    _trace_checks(recorder, sum(cell.traps for cell in traced),
                  sum(cell.fastpath_hits for cell in traced), False,
                  errors, out)
    _profile_check(recorder, hooks.profile, errors, out)
    digests = (chaos_digest(traced), chaos_digest(plain))
    if digests[0] != digests[1]:
        errors.append("traced and untraced sim_digest differ")

    metrics = _layer_metrics(recorder)
    metrics.update(_cache_ratios(traced))
    metrics["trace.overhead"] = (
        sum(traced_times) / sum(plain_times) - 1.0, "ratio")
    for kind in OP_KINDS:  # trap-mix ops only
        metrics[f"op.{kind}.p50_us"] = (0.0, "us")
        metrics[f"op.{kind}.sim_ns"] = (0.0, "ns")
    out.append(f"traced: {len(keys)} cells (chaos seed {drawn}), untraced "
               f"{sum(plain_times):.3f} s, traced {sum(traced_times):.3f} s")
    out.append(f"sim_digest: {digests[0]} (untraced {digests[1]})")
    out.append(_world_switch_line(recorder))
    out.append(CALIBRATED)
    return _result(metrics, recorder.ops, 0, errors)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.workload == "chaos-matrix":
        from perfbench import chaos  # noqa: F401
        from perfbench import spans

        spans.import_package("repro")  # see SETUP_IMPORTS
    else:
        from perfbench import trapmix  # noqa: F401
    import_s = 0.0 if args.trace else import_seconds(args.workload)

    out: list[str] = [f"workload: {args.workload} seed {args.seed}"]
    if args.trace and args.workload == "chaos-matrix":
        result = chaos_traced(args.seed, out)
    elif args.trace:
        result = trapmix_traced(args.workload, args.seed, args.seconds, out)
    elif args.workload == "chaos-matrix":
        result = chaos_end_to_end(args.seed, args.seconds, import_s, out)
    else:
        result = trapmix_end_to_end(args.workload, args.seed, args.seconds,
                                    import_s, out)
    for error in result.pop("errors"):
        out.append(f"check failed: {error}")
    for name, metric in result["metrics"].items():
        out.append(f"{name}: {metric['value']} {metric['unit']}")
    print("\n".join(out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
