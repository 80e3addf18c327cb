"""Differential check: the perf caches must not change simulation behaviour.

The hot-path layer (decode/encode memoization, region and device lookup
caches, CSR dispatch tables) is pure memoization — booting the same
deployment with the caches disabled must produce bit-identical trap logs,
console output, and final architectural state.  A cache that leaked state
between machines or returned a stale mapping would diverge here.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.isa import encoding
from repro.isa.encoding import _encode_instr
from repro.isa.instructions import make_instruction
from repro.policy import FirmwareSandboxPolicy
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized


def _workload(kernel, ctx):
    t0 = kernel.read_time(ctx)
    ctx.compute(5_000)
    kernel.sbi_set_timer(ctx, t0 + 2_000)
    ctx.compute(2_000)
    kernel.sbi_send_ipi(ctx, 0b1, 0)
    ctx.compute(1_000)
    kernel.print(ctx, f"t={kernel.read_time(ctx)}\n")


def _boot():
    system = build_virtualized(
        VISIONFIVE2,
        workload=_workload,
        policy=FirmwareSandboxPolicy(
            extra_allowed_regions=[(VISIONFIVE2.uart_base, 0x100)]
        ),
    )
    halt = system.run()
    hart = system.machine.harts[0]
    return {
        "halt": halt,
        "console": system.console_output,
        "events": list(system.machine.stats.events),
        "trap_counts": dict(system.machine.stats.trap_counts),
        "world_switches": system.machine.stats.world_switches,
        "fastpath_hits": system.machine.stats.fastpath_hits,
        "pc": hart.state.pc,
        "mode": hart.state.mode,
        "xregs": hart.state.xregs,
        "csrs": hart.state.csr.snapshot_state(),
        "cycles": system.machine.cycles,
        "instret": hart.instret,
    }


@pytest.fixture(autouse=True)
def _fresh_caches():
    perf.clear_caches()
    yield
    perf.set_caches_enabled(True)


class TestCacheDifferential:
    def test_cached_and_uncached_boots_are_identical(self):
        cached = _boot()
        with perf.caches_disabled():
            uncached = _boot()

        # Trap event logs must match event for event.
        assert cached["events"] == uncached["events"]
        # Final architectural state (every CSR, GPRs, pc, mode) must match.
        assert cached["csrs"] == uncached["csrs"]
        assert cached["xregs"] == uncached["xregs"]
        # And everything else observable.
        for key in ("halt", "console", "trap_counts", "world_switches",
                    "fastpath_hits", "pc", "mode", "cycles", "instret"):
            assert cached[key] == uncached[key], key

    def test_toggle_round_trip(self):
        assert perf.caches_enabled()
        with perf.caches_disabled():
            assert not perf.caches_enabled()
            with perf.caches_disabled():
                assert not perf.caches_enabled()
            assert not perf.caches_enabled()
        assert perf.caches_enabled()

    def test_clear_caches_bumps_generation(self):
        before = perf.cache_generation()
        perf.clear_caches()
        assert perf.cache_generation() == before + 1

    def test_instruction_word_is_memoised_only_when_enabled(self):
        with perf.caches_disabled():
            instr = make_instruction("csrrs", 5, 0, 0, 0, 0x300)
            assert instr.word == _encode_instr(instr)
            assert "word" not in instr.__dict__
        assert instr.word == _encode_instr(instr)
        assert instr.__dict__["word"] == instr.word

    def test_uncached_boot_materialises_through_the_encoder(self,
                                                            monkeypatch):
        encoded = []

        def spy(instr):
            encoded.append(instr)
            return _encode_instr(instr)

        monkeypatch.setattr(encoding, "_encode_instr", spy)
        with perf.caches_disabled():
            _boot()
        assert encoded
        assert all("word" not in instr.__dict__ for instr in encoded)
