"""Command-line interface tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_boot_defaults(self):
        args = build_parser().parse_args(["boot"])
        assert args.platform == "visionfive2"
        assert not args.native
        assert args.policy == "sandbox"

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["boot", "--platform", "pdp11"])


class TestBootCommand:
    def test_native_boot(self, capsys):
        assert main(["boot", "--native"]) == 0
        out = capsys.readouterr().out
        assert "halt:" in out and "traps to M-mode" in out

    def test_virtualized_boot(self, capsys):
        assert main(["boot"]) == 0
        out = capsys.readouterr().out
        assert "world switches:" in out
        assert "fast-path hits:" in out

    def test_no_offload_boot(self, capsys):
        assert main(["boot", "--no-offload", "--policy", "default"]) == 0
        assert "emulated instrs:" in capsys.readouterr().out

    def test_p550_boot(self, capsys):
        assert main(["boot", "--platform", "premier-p550"]) == 0

    def test_profile_boot(self, capsys):
        assert main(["boot", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "hot-path profile" in out
        assert "steps/sec:" in out
        assert "isa.decode" in out
        assert "bus.devices" in out

    def test_profile_native_boot(self, capsys):
        assert main(["boot", "--native", "--profile"]) == 0
        assert "hot-path profile" in capsys.readouterr().out


class TestAttackCommand:
    def test_list(self, capsys):
        assert main(["attack", "--list"]) == 0
        assert "read_os_memory" in capsys.readouterr().out

    def test_native_attack_succeeds(self, capsys):
        assert main(["attack", "read_os_memory", "--native"]) == 0
        assert "succeeded:  True" in capsys.readouterr().out

    def test_sandboxed_attack_contained(self, capsys):
        assert main(["attack", "read_os_memory"]) == 0
        out = capsys.readouterr().out
        assert "succeeded:  False" in out
        assert "denied" in out or "halted" in out


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--states", "4"]) == 0
        out = capsys.readouterr().out
        assert "faithful-emulation" in out and "PASS" in out


class TestFuzzCommand:
    def test_fuzz_clean(self, capsys):
        assert main(["fuzz", "--count", "3", "--length", "15"]) == 0
        assert "0 divergence(s)" in capsys.readouterr().out


class TestChaosCommand:
    def test_chaos_defaults_in_parser(self):
        args = build_parser().parse_args(["boot", "--chaos"])
        assert args.chaos and args.chaos_plan == "random"
        assert args.chaos_seed == 0 and args.firmware == "opensbi"

    def test_chaos_control_plan_ok(self, capsys):
        assert main(["boot", "--chaos", "--chaos-plan", "none"]) == 0
        out = capsys.readouterr().out
        assert "verdict:      OK" in out
        assert "checkpoint:   True" in out

    def test_chaos_stall_plan_recovers(self, capsys):
        assert main(["boot", "--chaos", "--chaos-plan", "stall-loop",
                     "--chaos-seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "verdict:      OK" in out
        assert "recoveries" in out

    def test_chaos_zephyr(self, capsys):
        assert main(["boot", "--chaos", "--firmware", "zephyr",
                     "--chaos-plan", "decode-flip", "--chaos-seed", "3"]) == 0
        assert "verdict:      OK" in capsys.readouterr().out

    def test_chaos_unknown_firmware_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["boot", "--chaos",
                                       "--firmware", "seabios"])

    def test_chaos_profile_refused(self, capsys):
        # A chaos run has no hot-path profile; its watchdog decisions are
        # on the report's ``recoveries:`` line.
        assert main(["boot", "--chaos", "--profile"]) == 2
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and "--profile" in out[0]


class TestBootFailureDiagnosis:
    def test_firmware_panic_exits_nonzero(self, capsys, monkeypatch):
        from repro.firmware.opensbi import OpenSbiFirmware
        import repro.system as system_module

        class PanicBootFirmware(OpenSbiFirmware):
            def boot(self, ctx):
                self.panic(ctx, "synthetic boot failure")

        monkeypatch.setitem(system_module.VENDOR_FIRMWARE, "visionfive2",
                            PanicBootFirmware)
        assert main(["boot"]) == 1
        out = capsys.readouterr().out
        assert "boot failed:" in out
        assert "panic" in out

    def test_diagnosis_is_one_line(self, capsys, monkeypatch):
        from repro.firmware.opensbi import OpenSbiFirmware
        import repro.system as system_module

        class PanicBootFirmware(OpenSbiFirmware):
            def boot(self, ctx):
                self.panic(ctx, "synthetic boot failure")

        monkeypatch.setitem(system_module.VENDOR_FIRMWARE, "visionfive2",
                            PanicBootFirmware)
        main(["boot"])
        out = capsys.readouterr().out
        diagnosis = [line for line in out.splitlines()
                     if line.startswith("boot failed:")]
        assert len(diagnosis) == 1


class TestCampaignCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.families == "verif,fuzz,chaos"
        assert args.workers == 1 and args.timeout == 120.0
        assert args.shard is None and args.json is None

    def test_shard_spec_validated(self):
        from repro.cli import _parse_shard

        assert _parse_shard("1/4") == (1, 4)
        assert _parse_shard(None) is None
        for bad in ("4/4", "x/2", "2", "-1/2"):
            with pytest.raises(SystemExit):
                _parse_shard(bad)

    def test_mini_campaign_runs_clean(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "aggregate.json"
        code = main(["campaign", "--families", "fuzz,chaos",
                     "--fuzz-count", "2", "--fuzz-length", "15",
                     "--chaos-firmwares", "zephyr",
                     "--chaos-plans", "none", "--workers", "2",
                     "--json", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign:" in out and "aggregate:" in out
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == "repro-campaign-v1"
        assert doc["counts"]["total"] == doc["counts"]["ok"]

    def test_sharded_campaign_partitions_cells(self, capsys):
        # Shards 0/2 and 1/2 of the same matrix are disjoint and cover it.
        total = 0
        for index in (0, 1):
            assert main(["campaign", "--families", "chaos",
                         "--chaos-firmwares", "zephyr",
                         "--chaos-plans", "none,flaky-uart,decode-flip",
                         "--chaos-seeds", "3,4",
                         "--shard", f"{index}/2"]) == 0
            header = [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("campaign:")][0]
            total += int(header.split()[1])
        assert total == 6

    def test_chaos_trace_dir_is_created(self, capsys, tmp_path):
        trace_dir = tmp_path / "nested" / "traces"
        assert main(["campaign", "--families", "chaos",
                     "--chaos-firmwares", "zephyr",
                     "--chaos-plans", "none",
                     "--chaos-trace-dir", str(trace_dir)]) == 0
        assert "aggregate: 1/1 ok" in capsys.readouterr().out
        assert [path.name for path in trace_dir.iterdir()] == [
            "campaign-zephyr-none-s0.json"]

    def test_unknown_family_rejected(self, capsys):
        assert main(["campaign", "--families", "verif,nonsense"]) == 2
        assert "unknown families" in capsys.readouterr().out

    def test_budget_exhaustion_exits_3(self, capsys):
        code = main(["campaign", "--families", "chaos",
                     "--chaos-firmwares", "opensbi,zephyr",
                     "--chaos-plans", "none,random",
                     "--budget", "0"])
        assert code == 3
        assert "skipped=4" in capsys.readouterr().out


class TestVerifyWorkersOption:
    def test_parallel_verify_matches_serial(self, capsys):
        import re

        def normalized(text):
            # Elapsed seconds are measurement noise, not results.
            return re.sub(r"in \d+\.\d+s", "in _s", text)

        assert main(["verify", "--states", "2"]) == 0
        serial = capsys.readouterr().out
        assert main(["verify", "--states", "2", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert normalized(parallel) == normalized(serial)
        assert serial.count("PASS") == 3


class TestFuzzBudgetOption:
    def test_zero_budget_exits_3(self, capsys):
        assert main(["fuzz", "--count", "4", "--budget", "0"]) == 3
        out = capsys.readouterr().out
        assert "0 scenarios" in out
        assert "4 seed(s) skipped" in out


class TestCorpusCommandErrors:
    @pytest.mark.parametrize("command", [["fuzz", "--cov"],
                                         ["cov", "report"]])
    def test_invalid_corpus_is_a_cell_error(self, command, tmp_path,
                                            capsys):
        # The corpus loads inside the cell: a bad entry is a reported
        # ERROR with exit 1, not a traceback or a zero-coverage report.
        (tmp_path / "cov-0000.json").write_text('{"schema": "nope"}')
        assert main(command + ["--corpus", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "ERROR (ValueError: cov-0000.json" in out
        assert "coverage:" not in out

    def test_cov_report_refuses_a_missing_corpus(self, tmp_path, capsys):
        # A mistyped path is refused, not reported as an empty corpus.
        missing = tmp_path / "nosuch"
        assert main(["cov", "report", "--corpus", str(missing)]) == 2
        assert "no corpus directory" in capsys.readouterr().out
        assert not missing.exists()
