"""Pinned outputs of the fuzz and coverage CLI entry points.

``repro fuzz``, ``repro fuzz --cov`` and ``repro cov report`` are
deterministic, so their stdout, the corpus files they keep, the coverage
document they write and the signatures of the bundles they capture are
fixed for a given command line.  These pins hold those bytes still while
the commands' internals change.
"""

import hashlib
import json
import os

from repro.cli import main

GUIDED_STDOUT = (
    "guided fuzz: 0 corpus input(s) replayed, 6 mutation(s) run, 2 kept "
    "(0 -> 2 corpus entries)\n"
    "coverage: 22 bitmap bits, 11 exact paths, 11/60 trap paths "
    "(digest 9559b5077c0a)\n"
    "0 divergence(s)\n"
)

CORPUS_FILES = {
    "cov-628815cf21de301c.json":
        "515ddf4edc5bd97933f4c6715c4442dee1b6c1fb3bdcb170d1aaea107616ba3a",
    "cov-79b5781292771097.json":
        "9068a2c1fb60894f5f49f9aa1c24b61c78a555507e1199a4fe6c9bafd99943e4",
}

REPORT_STDOUT = (
    "corpus: 2 input(s) (corpus)\n"
    "coverage: 142 trap(s) recorded, 22 bitmap bits, 11 exact paths\n"
    "trap paths covered: 11/60\n"
    "  FIRMWARE  3/20  [0x2,0x5,0x7]\n"
    "  NATIVE    4/20  [0x2,0x9,0x105,0x107]\n"
    "  OS        4/20  [0x2,0x9,0x105,0x107]\n"
    "digest: f074cdcd11db7468e9a8c524892a7756122a5453ef3d01cf87c858e27bcb9ec9\n"
    "coverage document written: cov.json\n"
)

REPORT_SHA256 = (
    "f074cdcd11db7468e9a8c524892a7756122a5453ef3d01cf87c858e27bcb9ec9"
)

#: Seeds 0..7 with a set_timer fast path that returns a wrong value:
#: seven divergences of one shape, so one distinct signature.
BROKEN_TIMER_SIGNATURES = [
    "c3a2b2e2edc11b530db56e55fcbb55fd6383e2d0d8b3760c463b7851579ada5a",
]
BROKEN_TIMER_FINDING_LINES_SHA256 = (
    "8a322078810e4c3cfd86b66368f0adf4a7d5bdbec103ace55474f04f83424963"
)


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _grow_corpus(capsys) -> str:
    assert main(["fuzz", "--cov", "--corpus", "corpus",
                 "--count", "6", "--length", "4"]) == 0
    return capsys.readouterr().out


class TestGuidedFuzzOutput:
    def test_stdout_and_corpus_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert _grow_corpus(capsys) == GUIDED_STDOUT
        files = {name: _sha256(tmp_path / "corpus" / name)
                 for name in sorted(os.listdir(tmp_path / "corpus"))}
        assert files == CORPUS_FILES


class TestCovReportOutput:
    def test_stdout_and_document_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _grow_corpus(capsys)
        assert main(["cov", "report", "--corpus", "corpus",
                     "--json", "cov.json"]) == 0
        assert capsys.readouterr().out == REPORT_STDOUT
        assert _sha256(tmp_path / "cov.json") == REPORT_SHA256


class TestFuzzBundleSignatures:
    def test_bundle_signature_digests(self, tmp_path, monkeypatch, capsys):
        from repro.core.offload import FastPath
        from repro.sbi.types import SbiRet

        def broken_set_timer(self, hart, vctx, deadline):
            hart.charge(10)
            return SbiRet.success(0xBAD)  # wrong: value must be 0

        monkeypatch.setattr(FastPath, "_sbi_set_timer", broken_set_timer)
        bundle_dir = tmp_path / "bundles"
        assert main(["fuzz", "--count", "8", "--length", "20",
                     "--bundle-dir", str(bundle_dir)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "8 scenarios, 7 divergence(s)"
        findings = [line for line in lines if line.startswith("  seed=")]
        assert len(findings) == 7
        assert (hashlib.sha256("\n".join(findings).encode()).hexdigest()
                == BROKEN_TIMER_FINDING_LINES_SHA256)
        digests = []
        for name in sorted(os.listdir(bundle_dir)):
            with open(bundle_dir / name) as handle:
                digests.append(json.load(handle)["signature"]["digest"])
        assert digests == BROKEN_TIMER_SIGNATURES
