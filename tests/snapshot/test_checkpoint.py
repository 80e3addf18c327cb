"""Checkpoint digest determinism (S4), alias safety, the on-disk store,
and the phased-chaos checkpoint cache.

The determinism pins: ``Checkpoint.digest()`` is a pure function of the
architectural state.  Two independent boots of the same configuration
hash byte-identically — at 1, 2, and 4 harts — and a
capture→restore→capture round-trip through a *fresh* machine reproduces
the digest exactly.  A phased chaos run that restores the cached
kernel-entry checkpoint produces the same result as the run that booted
to the phase and filled the cache, so how a cell reaches the phase
stays out of campaign cell keys and aggregates.
"""

import dataclasses
import json

import pytest

from repro.faults import chaos
from repro.faults.chaos import MAX_DISPATCHES, _build_sbi_system, run_chaos
from repro.snapshot import (
    Checkpoint,
    SnapshotError,
    capture,
    diff_checkpoints,
    load_checkpoint,
    restore,
    save_checkpoint,
)
from repro.spec.platform import VISIONFIVE2


def _boot_system(platform=VISIONFIVE2, firmware="opensbi"):
    system, _ = _build_sbi_system(platform, firmware)
    machine = system.machine
    machine.max_dispatches = MAX_DISPATCHES
    reached = machine.boot_to(system.kernel.entry_point,
                              entry=system.miralis.region.base)
    assert reached, f"halted before kernel entry: {machine.halt_reason!r}"
    return system


def _boot_checkpoint(platform=VISIONFIVE2, firmware="opensbi"):
    system = _boot_system(platform, firmware)
    return capture(system.machine, phase="kernel-entry")


class TestDigestDeterminism:
    """S4: the digest is timing-free and boot-order-free."""

    def test_independent_boots_hash_identically(self):
        assert _boot_checkpoint().digest() == _boot_checkpoint().digest()

    @pytest.mark.parametrize("harts", [1, 2, 4])
    def test_pinned_across_hart_counts(self, harts):
        platform = dataclasses.replace(VISIONFIVE2, num_harts=harts)
        a = _boot_checkpoint(platform)
        b = _boot_checkpoint(platform)
        assert a.state["num_harts"] == harts
        assert a.digest() == b.digest()

    def test_hart_count_is_part_of_the_digest(self):
        digests = {
            _boot_checkpoint(
                dataclasses.replace(VISIONFIVE2, num_harts=harts)).digest()
            for harts in (1, 2, 4)
        }
        assert len(digests) == 3

    def test_firmwares_hash_differently_but_stably(self):
        a = _boot_checkpoint(firmware="rustsbi")
        b = _boot_checkpoint(firmware="rustsbi")
        assert a.digest() == b.digest()
        assert a.digest() != _boot_checkpoint(firmware="opensbi").digest()

    def test_doc_survives_a_json_round_trip(self):
        checkpoint = _boot_checkpoint()
        doc = json.loads(json.dumps(checkpoint.doc()))
        assert Checkpoint.from_doc(doc).digest() == checkpoint.digest()

    def test_restore_into_fresh_machine_reproduces_digest(self):
        checkpoint = _boot_checkpoint()
        system, _ = _build_sbi_system(VISIONFIVE2, "opensbi")
        restore(system.machine, checkpoint)
        recaptured = capture(system.machine, phase=checkpoint.phase)
        assert recaptured.digest() == checkpoint.digest()


class TestAliasSafety:
    def test_running_on_does_not_mutate_the_checkpoint(self):
        system = _boot_system()
        machine = system.machine
        checkpoint = capture(machine, phase="kernel-entry")
        digest = checkpoint.digest()
        # Scribble on checkpointed RAM and run the machine to completion:
        # the checkpoint's COW pages must not see any of it.
        machine.ram.write(system.firmware.region.base + 0x8000, 8, 0xDEAD)
        machine.boot()
        assert checkpoint.digest() == digest

    def test_one_checkpoint_seeds_many_identical_restores(self):
        checkpoint = _boot_checkpoint()
        digest = checkpoint.digest()
        for _ in range(2):
            system, _ = _build_sbi_system(VISIONFIVE2, "opensbi")
            machine = system.machine
            restore(machine, checkpoint)
            assert capture(machine, phase="kernel-entry").digest() == digest
            # Run this consumer to the end; the next restore must not
            # observe the first consumer's execution through shared pages.
            machine.max_dispatches = MAX_DISPATCHES
            machine.boot()

    def test_restore_rejects_wrong_hart_count(self):
        checkpoint = _boot_checkpoint(
            dataclasses.replace(VISIONFIVE2, num_harts=2))
        system, _ = _build_sbi_system(VISIONFIVE2, "opensbi")
        with pytest.raises(SnapshotError, match="harts"):
            restore(system.machine, checkpoint)


class TestStore:
    def test_save_load_round_trip(self, tmp_path):
        checkpoint = _boot_checkpoint()
        path = save_checkpoint(checkpoint, tmp_path)
        assert checkpoint.digest()[:16] in path.name
        loaded = load_checkpoint(path)
        assert loaded.digest() == checkpoint.digest()

    def test_corruption_is_detected_on_load(self, tmp_path):
        checkpoint = _boot_checkpoint()
        path = save_checkpoint(checkpoint, tmp_path)
        doc = json.loads(path.read_text())
        doc["state"]["machine"]["cycles"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError):
            load_checkpoint(path)

    def test_diff_labels_the_changed_paths(self):
        a = _boot_checkpoint(firmware="opensbi")
        b = _boot_checkpoint(firmware="opensbi")
        assert diff_checkpoints(a, b) == []
        c = _boot_checkpoint(firmware="rustsbi")
        paths = {entry["path"] for entry in diff_checkpoints(a, c)}
        assert any(path.startswith("ram.pages.") for path in paths)
        assert "state.devices.uart.output" in paths


class TestPhaseCheckpointCache:
    """A phased run boots to the phase on a cache miss and restores the
    cached checkpoint on a hit; both give the same result."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        chaos._WARM_BOOTS.clear()
        yield
        chaos._WARM_BOOTS.clear()

    def _miss_then_hit(self, monkeypatch, firmware, plan, seed,
                       tracers=(None, None)):
        miss = run_chaos(firmware, plan=plan, seed=seed,
                         phase="kernel-entry", tracer=tracers[0])
        assert (VISIONFIVE2, firmware) in chaos._WARM_BOOTS

        def no_boot(system):
            raise AssertionError("a cache hit must not boot to the phase")

        monkeypatch.setattr(chaos, "capture_kernel_entry", no_boot)
        hit = run_chaos(firmware, plan=plan, seed=seed,
                        phase="kernel-entry", tracer=tracers[1])
        assert dataclasses.asdict(hit) == dataclasses.asdict(miss)
        return miss

    @pytest.mark.parametrize("plan", ["none", "csr-chaos", "transient-mmio"])
    def test_opensbi_plans(self, monkeypatch, plan):
        self._miss_then_hit(monkeypatch, "opensbi", plan, seed=3)

    def test_rustsbi(self, monkeypatch):
        self._miss_then_hit(monkeypatch, "rustsbi", "csr-chaos", seed=5)

    def test_malicious(self, monkeypatch):
        result = self._miss_then_hit(monkeypatch, "malicious", "csr-chaos",
                                     seed=1)
        assert result.ok

    def test_traced_dumps_are_byte_identical(self, monkeypatch, tmp_path):
        from repro.trace import Tracer, dump_trace

        tracers = (Tracer(), Tracer())
        self._miss_then_hit(monkeypatch, "opensbi", "transient-mmio",
                            seed=2, tracers=tracers)
        miss, hit = tmp_path / "miss.json", tmp_path / "hit.json"
        dump_trace(tracers[0], str(miss))
        dump_trace(tracers[1], str(hit))
        assert miss.read_bytes() == hit.read_bytes()

    def test_cached_checkpoint_is_the_pristine_boot(self):
        # Captured mid-cell on the cell's own system, and left unchanged
        # by the faulted run that continued from it.
        run_chaos("opensbi", plan="csr-chaos", seed=0, phase="kernel-entry")
        cached = chaos._WARM_BOOTS[(VISIONFIVE2, "opensbi")]
        assert cached.digest() == _boot_checkpoint().digest()

    def test_phase_validation(self):
        with pytest.raises(ValueError, match="phase"):
            run_chaos("opensbi", plan="none", seed=0, phase="mid-boot")
        with pytest.raises(ValueError):
            run_chaos("zephyr", plan="none", seed=0, phase="kernel-entry")
        with pytest.raises(ValueError, match="single-hart"):
            run_chaos("opensbi", plan="none", seed=0, phase="kernel-entry",
                      harts=2)


class TestPhasedCampaign:
    def test_aggregate_is_byte_identical_across_worker_counts(self):
        # One worker misses once per firmware and hits after; two
        # workers miss in each process.  The aggregate must not tell.
        from repro.campaign import (
            canonical_json,
            chaos_cells,
            merge_campaign,
            run_campaign,
        )

        cells = chaos_cells(firmwares=("opensbi", "rustsbi", "malicious"),
                            plans=("none", "csr-chaos"), seeds=(0, 1),
                            phase="kernel-entry")
        docs = [canonical_json(merge_campaign(
            run_campaign(cells, workers=workers, timeout=120.0)))
            for workers in (1, 2)]
        assert docs[0] == docs[1]


class TestShapeChecks:
    """A restore the machine cannot faithfully hold is refused up front,
    before any of the machine is overwritten."""

    def test_watchdog_missing_from_the_checkpoint_is_rejected(self):
        from repro.core.config import MiralisConfig
        from repro.system import build_virtualized

        source = build_virtualized(
            VISIONFIVE2, miralis_config=MiralisConfig(watchdog_enabled=False))
        checkpoint = capture(source.machine, phase="pre-boot")
        target = build_virtualized(
            VISIONFIVE2, miralis_config=MiralisConfig(watchdog_enabled=True))
        target.miralis.watchdog.quarantined[0] = True
        with pytest.raises(SnapshotError, match="watchdog"):
            restore(target.machine, checkpoint)
        # Nothing was overwritten by the refused restore.
        assert target.miralis.watchdog.quarantined[0]

    def test_watchdog_missing_from_the_machine_is_rejected(self):
        from repro.core.config import MiralisConfig
        from repro.system import build_virtualized

        checkpoint = _boot_checkpoint()  # the chaos build arms the watchdog
        target = build_virtualized(
            VISIONFIVE2, miralis_config=MiralisConfig(watchdog_enabled=False))
        with pytest.raises(SnapshotError, match="watchdog"):
            restore(target.machine, checkpoint)

    def test_sandbox_state_does_not_graft_onto_the_default_policy(self):
        from repro.faults.chaos import _chaos_miralis_config
        from repro.policy.default import DefaultPolicy
        from repro.system import build_virtualized

        checkpoint = _boot_checkpoint()  # FirmwareSandboxPolicy, locked
        assert checkpoint.state["monitor"]["policy"]["locked"] == [True]
        target = build_virtualized(
            VISIONFIVE2, policy=DefaultPolicy(),
            miralis_config=_chaos_miralis_config(VISIONFIVE2.vendor_csrs))
        with pytest.raises(SnapshotError, match="policy"):
            restore(target.machine, checkpoint)
        assert not hasattr(target.miralis.policy, "locked")
        assert target.machine.cycles == 0
