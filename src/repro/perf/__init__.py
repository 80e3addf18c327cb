"""Hot-path observability: cache registry, counters, and meters.

The interpreter's hot loop (fetch, decode, dispatch, cost accounting)
is accelerated by a set of caches spread across ``repro.isa`` and
``repro.hart``.  Each lookup cache has one form, checked against its
reference implementation by ``tests/integration/test_cache_differential.py``.
This package keeps:

* the module-lifetime cache registry (``register_cache`` /
  ``clear_caches``), which the benchmarks use for cold runs;
* hit/miss statistics aggregation (``cache_stats``) — each caching
  module registers a provider instead of this module importing them,
  keeping ``repro.perf`` dependency-free;
* a steps/sec meter (``StepMeter``) and the ``--profile`` report
  formatter used by the CLI and ``benchmarks/test_hotpath_speed.py``.
"""

from repro.perf.counters import (
    StepMeter,
    cache_stats,
    clear_caches,
    profile_report,
    register_cache,
    register_stats_provider,
    reset_stats_providers,
    stats_delta,
    unregister_stats_provider,
)

__all__ = [
    "StepMeter",
    "cache_stats",
    "clear_caches",
    "profile_report",
    "register_cache",
    "register_stats_provider",
    "reset_stats_providers",
    "stats_delta",
    "unregister_stats_provider",
]
