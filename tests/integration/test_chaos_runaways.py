"""Chaos cells that used to run away, and cells that end in an exception.

Each runaway cell stormed on one OS-world MSI that no world owned: the
firmware's virtual msip was clear and the fast path was off, so the
monitor returned to the OS with the line raised and MSIE on, and the hart
re-trapped until the dispatch budget cut it.  Routed by ownership, the MSI
is acked and dropped, and each cell ends on its own, under the shipped
``CASE_DISPATCH_LIMIT``.
"""

from __future__ import annotations

import pytest

from repro.faults import chaos

RUNAWAYS = [
    ("opensbi", "csr-chaos", 119),
    ("rustsbi", "csr-chaos", 119),
    ("opensbi", "decode-flip", 16),
    ("rustsbi", "decode-flip", 16),
    ("malicious", "decode-flip", 16),
]


@pytest.mark.parametrize("firmware,plan,seed", RUNAWAYS)
def test_former_runaway_cell_ends_ok(firmware, plan, seed):
    result = chaos.run_chaos(firmware, plan, seed=seed)
    assert result.error is None
    assert result.ok, result.report()
    assert result.checkpoint


def test_cell_that_raises_keeps_its_flight_record():
    """``transient-mmio`` at seed 1 still leaks a CLINT bus error, but the
    result carries what the machine recorded up to it."""
    result = chaos.run_chaos("opensbi", "transient-mmio", seed=1)
    assert result.error is not None and "BusError" in result.error
    assert result.injections == 4
    assert result.trap_log_total > 0
    assert result.trap_log
    assert result.console
    assert result.recoveries["recoveries"] > 0
    assert result.hart_recoveries[0] == result.recoveries
