"""Campaign cells: the unit of sharded work.

A :class:`CampaignCell` is one self-contained piece of a sweep — a chunk
of the faithful-emulation state space, a fuzz seed sub-range, one
(firmware, plan, seed) chaos boot.  Cells are pure data (family name,
stable key, primitive params) so they cross process boundaries freely;
a per-family *runner* registered in :data:`FAMILY_RUNNERS` turns a cell
into a JSON-stable result payload.

Two properties carry the whole campaign design:

* **Stable identity.**  ``cell.key`` canonically names the work, and
  :func:`shard_of` maps a key to a shard as a pure function (SHA-256 of
  the key, not ``hash()`` — Python string hashing is salted per process).
  The same matrix therefore shards identically on every run, every
  machine, and every worker count.
* **Canonical payloads.**  Runners return only JSON primitives with
  deterministic ordering, so the merged aggregate is byte-identical no
  matter which worker produced which cell or in what order they finished.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Iterable, Optional

#: Families the CLI exposes (the ``stall`` calibration family is
#: internal: used by the scaling benchmark and the timeout tests).
CLI_FAMILIES = ("verif", "fuzz", "covfuzz", "chaos")


@dataclasses.dataclass(frozen=True)
class CampaignCell:
    """One shardable unit of campaign work."""

    family: str
    key: str
    params: tuple  # sorted (name, value) pairs; primitives only

    @classmethod
    def make(cls, family: str, key: str, **params) -> "CampaignCell":
        return cls(family=family, key=key, params=tuple(sorted(params.items())))

    def param_dict(self) -> dict:
        return dict(self.params)


def shard_of(key: str, shards: int) -> int:
    """Deterministic shard assignment: a pure function of the cell key.

    Uses SHA-256 rather than ``hash()`` so the assignment survives
    process boundaries, PYTHONHASHSEED, and Python versions — the same
    cell always lands on the same shard for a given shard count.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


# -- family registry ---------------------------------------------------------

#: family name -> runner(params: dict) -> (status, payload).
#: ``status`` is "ok" or "fail" (errors/timeouts are the pool's job);
#: ``payload`` must be canonical JSON-stable data.
FAMILY_RUNNERS: dict[str, Callable[[dict], tuple[str, dict]]] = {}


def register_family(name: str, runner: Callable[[dict], tuple[str, dict]],
                    ) -> None:
    """Register (or override) a cell family runner.

    Test suites register synthetic families (e.g. an always-raising one)
    through this; with the fork start method workers inherit the
    registry, so registration before :func:`run_campaign` is enough.
    """
    FAMILY_RUNNERS[name] = runner


def execute_cell(cell: CampaignCell) -> tuple[str, dict]:
    runner = FAMILY_RUNNERS.get(cell.family)
    if runner is None:
        raise KeyError(f"unknown cell family {cell.family!r}")
    return runner(cell.param_dict())


def _chunks(total: int, size: int) -> Iterable[tuple[int, int]]:
    for start in range(0, total, size):
        yield start, min(start + size, total)


# -- verif family ------------------------------------------------------------

#: Table 2 task names in the order ``repro verify`` reports them.
VERIF_TASK_ORDER = (
    "faithful-emulation", "virtual-interrupt", "faithful-execution",
)

_MIP_SELECTOR_COUNT = 64  # |pending patterns| in interrupt_space


def _verif_descriptions(states: int):
    from repro.verif import StateDescription, csr_value_space

    return [
        StateDescription(gprs=[0] + [value] * 31)
        for value in csr_value_space(samples=4)[:states]
    ]


def _execution_config_count() -> int:
    from repro.verif import pmp_config_space

    # The config count is independent of the entry count (single-entry
    # sweeps plus a fixed number of random multi-entry configs).
    return sum(1 for _ in pmp_config_space(4))


def verif_cells(platform: str = "visionfive2", states: int = 16,
                subspaces: Iterable[str] = ("emulation", "interrupts",
                                            "execution"),
                state_chunk: int = 4, selector_chunk: int = 16,
                config_chunk: int = 40) -> list[CampaignCell]:
    """Shard the Table 2 verification sweep into cells.

    Chunk sizes are part of the matrix definition (they shape cell keys),
    so the same arguments always produce the same cells — worker count
    only decides who runs them.
    """
    cells = []
    if "emulation" in subspaces:
        for start, stop in _chunks(states, state_chunk):
            cells.append(CampaignCell.make(
                "verif", f"verif:emulation:{platform}:d{start:03d}-{stop:03d}",
                subspace="emulation", platform=platform, states=states,
                start=start, stop=stop,
            ))
    if "interrupts" in subspaces:
        for start, stop in _chunks(_MIP_SELECTOR_COUNT, selector_chunk):
            cells.append(CampaignCell.make(
                "verif", f"verif:interrupts:{platform}:m{start:03d}-{stop:03d}",
                subspace="interrupts", platform=platform,
                start=start, stop=stop,
            ))
    if "execution" in subspaces:
        for start, stop in _chunks(_execution_config_count(), config_chunk):
            cells.append(CampaignCell.make(
                "verif", f"verif:execution:{platform}:p{start:03d}-{stop:03d}",
                subspace="execution", platform=platform,
                start=start, stop=stop,
            ))
    return cells


def _run_verif_cell(params: dict) -> tuple[str, dict]:
    from repro.spec.platform import PLATFORMS
    from repro.verif import (
        csr_instruction_space,
        pmp_config_space,
        run_emulation_check,
        run_execution_check,
        run_interrupt_check,
        system_instruction_space,
        virtual_platform,
    )

    platform = PLATFORMS[params["platform"]]
    subspace = params["subspace"]
    start, stop = params["start"], params["stop"]
    if subspace == "emulation" and params.get("states") is None:
        raise ValueError("emulation cells require a 'states' param")
    if subspace == "emulation":
        from repro.spec.csrs import known_csr_addresses

        vplatform = virtual_platform(platform, virtual_pmp_count=4)
        descriptions = _verif_descriptions(params["states"])[start:stop]
        instructions = list(csr_instruction_space(known_csr_addresses(vplatform)))
        instructions += list(system_instruction_space())
        report = run_emulation_check(vplatform, descriptions, instructions,
                                     task="faithful-emulation")
    elif subspace == "interrupts":
        vplatform = virtual_platform(platform, virtual_pmp_count=4)
        report = run_interrupt_check(vplatform,
                                     mip_selectors=range(start, stop))
    elif subspace == "execution":
        from repro.system import build_virtualized

        system = build_virtualized(platform)
        configs = list(pmp_config_space(
            system.miralis.vpmp.virtual_count
        ))[start:stop]
        report = run_execution_check(system, configs)
    else:
        raise ValueError(f"unknown verif subspace {subspace!r}")
    payload = {"report": report.to_dict()}
    if not report.passed:
        from repro.triage.bundle import bundle_from_verif

        payload["bundle"] = bundle_from_verif(
            report.to_dict(include_timing=False),
            platform=params["platform"], params=params,
            source="campaign:verif",
        )
    return ("ok" if report.passed else "fail"), payload


# -- fuzz family -------------------------------------------------------------

def fuzz_cells(start: int = 0, count: int = 20, length: int = 30,
               platform: str = "visionfive2", offload: bool = True,
               chunk: int = 4) -> list[CampaignCell]:
    """Shard a differential-fuzz seed range into cells of ``chunk`` seeds."""
    return [
        CampaignCell.make(
            "fuzz",
            f"fuzz:{platform}:l{length}:o{int(offload)}:"
            f"s{start + lo:05d}-{start + hi:05d}",
            start=start + lo, stop=start + hi, length=length,
            platform=platform, offload=offload,
        )
        for lo, hi in _chunks(count, chunk)
    ]


def _finding_payload(finding, params: dict, **bundle_options) -> dict:
    """One fuzz finding as payload data, built from its repro bundle so
    the payload's ``diff`` is the bundle's — an identical hang included,
    whose only differing field is the blown budget in ``crashed``."""
    from repro.triage.bundle import bundle_from_fuzz

    bundle = bundle_from_fuzz(finding, platform=params["platform"],
                              length=params["length"], **bundle_options)
    return {
        "offload": finding.offload,
        "diff": bundle["failure"]["diff"],
        # The decoded input itself — a finding naming only the seed is
        # not actionable without re-running the generator.
        "steps": [[action, operand] for action, operand in finding.steps],
        "bundle": bundle,
    }


def _run_fuzz_cell(params: dict) -> tuple[str, dict]:
    from repro.spec.platform import PLATFORMS
    from repro.verif.fuzz import fuzz_scenario

    seeds = range(params["start"], params["stop"])
    findings = []
    for seed in seeds:
        finding = fuzz_scenario(seed, length=params["length"],
                                platform=PLATFORMS[params["platform"]],
                                offload=params["offload"])
        if finding is not None:
            findings.append(dict(
                _finding_payload(finding, params, source="campaign:fuzz"),
                seed=seed,
            ))
    payload = {"seeds_run": list(seeds), "findings": findings}
    return ("fail" if findings else "ok"), payload


# -- covfuzz family (coverage-guided differential fuzzing) -------------------

def covfuzz_cells(cells: int = 4, cases: int = 8, length: int = 8,
                  platform: str = "visionfive2", offload: bool = True,
                  seed: int = 0, corpus_dir: Optional[str] = None,
                  ) -> list[CampaignCell]:
    """Shard a guided-fuzz run into independent cells.

    Each cell runs its own guided loop from a distinct seed over a
    *private in-memory copy* of the starting corpus — cells never write
    shared files, so results are independent of worker interleaving.
    Kept inputs and coverage come back in the payload; the merge step
    unions them order-independently.  ``cases=0`` only replays the
    corpus (``repro cov report``).
    """
    out = []
    for index in range(cells):
        params = dict(seed=seed + index, cases=cases, length=length,
                      platform=platform, offload=offload)
        if corpus_dir is not None:
            params["corpus_dir"] = corpus_dir
        out.append(CampaignCell.make(
            "covfuzz",
            f"covfuzz:{platform}:l{length}:o{int(offload)}:"
            f"c{cases:03d}:s{seed + index:05d}",
            **params,
        ))
    return out


def _run_covfuzz_cell(params: dict) -> tuple[str, dict]:
    from repro.coverage import Corpus, run_guided_fuzz
    from repro.spec.platform import PLATFORMS

    corpus = Corpus()  # in-memory: cells must not race on shared files
    corpus_dir = params.get("corpus_dir")
    if corpus_dir is not None:
        for entry in Corpus(corpus_dir).entries.values():
            corpus.add_entry(entry)
    result = run_guided_fuzz(
        corpus,
        seed=params["seed"],
        cases=params["cases"],
        length=params["length"],
        platform=PLATFORMS[params["platform"]],
        offload=params["offload"],
    )
    coverage_summary = {
        "digest": result.coverage.digest(),
        "bitmap_bits": result.coverage.bit_count(),
        "paths": result.coverage.path_count(),
    }
    # Guided inputs are mutants no seed encodes: the bundles carry
    # explicit steps so replay drives them directly.
    findings = [
        _finding_payload(finding, params, source="campaign:covfuzz",
                         explicit_steps=True, coverage=coverage_summary)
        for finding in result.findings
    ]
    findings.sort(key=lambda f: f["bundle"]["signature"]["digest"])
    payload = {
        "replayed": result.replayed,
        "executed": result.executed,
        "kept": [{"digest": digest, "entry": corpus.entries[digest]}
                 for digest in sorted(result.kept)],
        "coverage": result.coverage.to_doc(),
        "findings": findings,
    }
    return ("fail" if findings else "ok"), payload


# -- chaos family ------------------------------------------------------------

def chaos_cells(firmwares: Iterable[str] = ("opensbi",),
                plans: Iterable[str] = ("random",),
                seeds: Iterable[int] = (0,),
                platform: str = "visionfive2",
                harts: Optional[int] = None,
                trace_dir: Optional[str] = None,
                phase: Optional[str] = None) -> list[CampaignCell]:
    """The chaos matrix: firmware x plan x seed (optionally at N harts).

    ``phase`` names the boot phase fault injection starts at; it shapes
    the work, so it is part of the cell key.  How a cell reaches the
    phase (boot there itself, or restore the checkpoint an earlier cell
    in the same worker cached) is not: both give the same result, so the
    canonical aggregate does not depend on the worker count.
    """
    cells = []
    for firmware in firmwares:
        for plan in plans:
            for seed in seeds:
                key = f"chaos:{platform}:{firmware}:{plan}:s{seed}"
                if harts is not None:
                    key += f":h{harts}"
                if phase is not None:
                    key += f":p{phase}"
                params = dict(firmware=firmware, plan=plan, seed=seed,
                              platform=platform, harts=harts)
                if trace_dir is not None:
                    params["trace_dir"] = trace_dir
                if phase is not None:
                    params["phase"] = phase
                cells.append(CampaignCell.make("chaos", key, **params))
    return cells


def _run_chaos_cell(params: dict) -> tuple[str, dict]:
    from repro.faults.chaos import run_chaos
    from repro.spec.platform import PLATFORMS

    tracer = None
    trace_dir = params.get("trace_dir")
    if trace_dir is not None:
        from repro.trace import Tracer

        tracer = Tracer()
    result = run_chaos(
        params["firmware"],
        plan=params["plan"],
        seed=params["seed"],
        platform=PLATFORMS[params["platform"]],
        harts=params["harts"],
        tracer=tracer,
        phase=params.get("phase"),
    )
    if tracer is not None:
        import os

        from repro.trace import dump_trace

        name = (f"campaign-{params['firmware']}-{params['plan']}"
                f"-s{params['seed']}.json")
        dump_trace(tracer, os.path.join(trace_dir, name))
    payload = {
        "firmware": result.firmware,
        "plan": result.plan,
        "seed": result.seed,
        "harts": params["harts"],
        "phase": params.get("phase"),
        "ok": result.ok,
        "halt": result.halt_reason,
        "checkpoint": result.checkpoint,
        "quarantined": result.quarantined,
        "injections": result.injections,
        "recoveries": {k: result.recoveries[k]
                       for k in sorted(result.recoveries)},
        "trap_log_total": result.trap_log_total,
        "error": result.error,
    }
    if not result.ok or result.quarantined or result.error is not None:
        # Quarantines count as "ok" under the chaos contract, but the
        # watchdog pulling the plug is exactly the event worth a repro
        # bundle — the chaos suite's deterministic failure source.
        from repro.triage.bundle import bundle_from_chaos

        payload["bundle"] = bundle_from_chaos(
            result, platform=params["platform"], harts=params["harts"],
            source="campaign:chaos", tracer=tracer,
        )
    return ("ok" if result.ok else "fail"), payload


# -- stall family (calibration) ----------------------------------------------

def stall_cells(count: int, seconds: float,
                label: str = "cal") -> list[CampaignCell]:
    """Latency-bound calibration cells: each blocks for ``seconds``.

    Two in-tree consumers: the timeout tests (a stall cell far beyond
    the per-cell timeout is a reproducible hung worker) and the scaling
    benchmark, which measures pool scaling on latency-bound cells so the
    number is independent of how many host CPUs the CI box happens to
    have (CPU-bound cells cannot speed up on a single-CPU host; these
    model backend-bound campaign work, where the worker waits on an
    external engine).
    """
    return [
        CampaignCell.make("stall", f"stall:{label}:{index:03d}",
                          seconds=seconds, index=index)
        for index in range(count)
    ]


def _run_stall_cell(params: dict) -> tuple[str, dict]:
    import time

    time.sleep(params["seconds"])
    return "ok", {"index": params["index"], "seconds": params["seconds"]}


# -- triage-replay family (the shrinker's candidate evaluator) ---------------

def _run_triage_cell(params: dict) -> tuple[str, dict]:
    """Replay one candidate bundle; used by the delta-debugging shrinker
    to batch candidates through the pool (parallelism + per-candidate
    timeouts).  Always returns "ok" — reproduction is in the payload's
    ``matches``, not the cell status — so a *non*-reproducing candidate
    is not confused with a broken cell."""
    import json

    from repro.triage.replay import replay_bundle

    bundle = json.loads(params["bundle_json"])
    replay = replay_bundle(bundle)
    return "ok", {
        "index": params["index"],
        "matches": replay.matches,
        "digest": replay.replayed.get("digest"),
    }


register_family("verif", _run_verif_cell)
register_family("fuzz", _run_fuzz_cell)
register_family("covfuzz", _run_covfuzz_cell)
register_family("chaos", _run_chaos_cell)
register_family("stall", _run_stall_cell)
register_family("triage-replay", _run_triage_cell)
