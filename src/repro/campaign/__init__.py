"""Parallel campaign runner: sharded verification / fuzz / chaos farm.

The paper's confidence story rests on running *every* check — the
Table 2 verification sweeps, differential fuzzing, the chaos matrix —
and this package makes that campaign a first-class, parallel subsystem:

* :mod:`repro.campaign.cells` — the shardable unit of work and the
  family registry (``verif`` / ``fuzz`` / ``covfuzz`` / ``chaos`` plus
  the ``stall`` calibration family), with deterministic shard assignment
  as a pure function of the cell key;
* :mod:`repro.campaign.runner` — the multiprocessing worker pool with
  per-cell timeout, one-retry handling, crash containment, and a
  campaign-level budget;
* :mod:`repro.campaign.merge` — the order-independent merger whose
  canonical aggregate is byte-identical at any worker count.

Surfaced as ``python -m repro campaign``; ``repro verify``, ``repro
fuzz`` (``--cov`` too) and ``repro cov report`` run their sweeps
through it as well.
"""

from repro.campaign.cells import (
    CLI_FAMILIES,
    CampaignCell,
    FAMILY_RUNNERS,
    VERIF_TASK_ORDER,
    chaos_cells,
    covfuzz_cells,
    execute_cell,
    fuzz_cells,
    register_family,
    shard_of,
    stall_cells,
    verif_cells,
)
from repro.campaign.merge import (
    canonical_aggregate,
    canonical_json,
    exit_code,
    fold_kept,
    merge_campaign,
    merged_check_reports,
    report_from_dict,
)
from repro.campaign.runner import (
    CampaignResult,
    CellResult,
    DEFAULT_TIMEOUT_SECONDS,
    run_campaign,
)

__all__ = [
    "CLI_FAMILIES",
    "CampaignCell",
    "CampaignResult",
    "CellResult",
    "DEFAULT_TIMEOUT_SECONDS",
    "FAMILY_RUNNERS",
    "VERIF_TASK_ORDER",
    "canonical_aggregate",
    "canonical_json",
    "chaos_cells",
    "covfuzz_cells",
    "execute_cell",
    "exit_code",
    "fold_kept",
    "fuzz_cells",
    "merge_campaign",
    "merged_check_reports",
    "register_family",
    "report_from_dict",
    "run_campaign",
    "shard_of",
    "stall_cells",
    "verif_cells",
]
