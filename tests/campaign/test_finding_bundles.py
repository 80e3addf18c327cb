"""Fuzz findings in cell payloads, and the bundles a campaign writes.

* An identical hang — both deployments blow the same budget — is a
  finding whose observations are equal field by field.  Its ``diff``
  must still name the ``crashed`` field, as the finding's bundle does;
  the cell runners used to rebuild the diff by hand and report ``{}``.
* Bundles are named by signature, so two identical failures share one
  file.  The ``bundles written:`` count is the number of files.
"""

from repro.campaign import CampaignCell, register_family, run_campaign
from repro.verif.fuzz import FuzzFinding, Scenario

HANG = "budget: wall-clock budget of 5.0s exceeded"


def _identical_hang(seed, length=40, platform=None, offload=True, **_):
    observation = {"halt": "", "crashed": HANG}
    return FuzzFinding(Scenario(seed=seed, length=length), offload,
                       dict(observation), dict(observation))


class TestIdenticalHangDiff:
    def test_fuzz_cell_names_the_crashed_field(self, monkeypatch):
        from repro.campaign.cells import _run_fuzz_cell

        monkeypatch.setattr("repro.verif.fuzz.fuzz_scenario",
                            _identical_hang)
        status, payload = _run_fuzz_cell(dict(
            start=0, stop=1, length=4, platform="visionfive2",
            offload=True,
        ))
        assert status == "fail"
        (finding,) = payload["findings"]
        assert finding["diff"] == {"crashed": [repr(HANG), repr(HANG)]}
        assert finding["diff"] == finding["bundle"]["failure"]["diff"]

    def test_covfuzz_cell_names_the_crashed_field(self, monkeypatch):
        from repro.campaign.cells import _run_covfuzz_cell

        monkeypatch.setattr("repro.coverage.guided.fuzz_scenario",
                            _identical_hang)
        status, payload = _run_covfuzz_cell(dict(
            seed=0, cases=1, length=4, platform="visionfive2",
            offload=True,
        ))
        assert status == "fail"
        (finding,) = payload["findings"]
        assert finding["diff"] == {"crashed": [repr(HANG), repr(HANG)]}
        assert finding["diff"] == finding["bundle"]["failure"]["diff"]


def _same_bundle_cell(params):
    bundle = {"kind": "fuzz", "signature": {"digest": "ab" * 32}}
    return "fail", {"bundle": bundle}


class TestSavedBundleCount:
    def test_identical_bundles_count_once(self, tmp_path):
        from repro.cli import _save_campaign_bundles

        register_family("same-bundle", _same_bundle_cell)
        cells = [CampaignCell.make("same-bundle", f"same-bundle:{index}",
                                   index=index)
                 for index in range(2)]
        campaign = run_campaign(cells)
        assert [result.status for result in campaign.results] == [
            "fail", "fail"]
        assert _save_campaign_bundles(campaign, str(tmp_path)) == 1
        assert len(list(tmp_path.iterdir())) == 1
