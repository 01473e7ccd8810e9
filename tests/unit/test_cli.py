"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_simulate_validates_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "dhrystone"])

    def test_simulate_validates_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "gcc", "--scheme", "magic"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "gcc"])
        assert args.scheme == "ccnvm"
        assert args.length == 4000

    def test_faults_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])

    def test_faults_run_validates_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "run", "--schemes", "magic"])

    def test_faults_run_defaults(self):
        args = build_parser().parse_args(["faults", "run"])
        assert args.schemes is None and args.sites is None
        assert args.steps is None and args.export is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "run", "--smoke"])

    def test_retired_commands_are_gone(self):
        for command in ("serve", "client", "chaos", "traffic"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_faults_sites_flags(self):
        args = build_parser().parse_args(
            ["faults", "sites", "--json", "--scheme", "osiris_plus"]
        )
        assert args.json and args.scheme == "osiris_plus"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "sites", "--scheme", "magic"])

    def test_crash_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crash"])

    def test_crash_campaign_defaults(self):
        args = build_parser().parse_args(["crash", "campaign"])
        assert args.schemes is None and args.profiles is None
        assert args.steps is None and args.shards is None
        assert args.window == 4 and args.seed == 7 and args.spot == 1
        assert not args.torn_batches and args.nested_depth == 0
        assert args.jobs == 1 and not args.no_cache
        args = build_parser().parse_args(
            ["crash", "campaign", "--nested-depth", "2", "--torn-batches"]
        )
        assert args.nested_depth == 2 and args.torn_batches
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crash", "campaign", "--nested-depth", "3"])
        # The explorer's one-shot command is folded into the campaign.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crash", "explore"])

    def test_crash_campaign_validates_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crash", "campaign", "--schemes", "magic"])

    def test_crash_replay_and_minimize_take_a_file(self):
        args = build_parser().parse_args(["crash", "replay", "r.json"])
        assert args.file == "r.json"
        args = build_parser().parse_args(
            ["crash", "minimize", "r.json", "--out", "m.json"]
        )
        assert args.file == "r.json" and args.out == "m.json"

    def test_obs_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_obs_trace_defaults(self):
        args = build_parser().parse_args(["obs", "trace", "gcc"])
        assert args.scheme == "ccnvm" and args.length == 4000
        assert args.capacity is None and args.out is None

    def test_obs_timeline_defaults(self):
        args = build_parser().parse_args(["obs", "timeline", "gcc"])
        assert len(args.schemes) == 6
        assert args.jobs == 1 and not args.no_cache and args.json is None

    def test_obs_timeline_validates_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "timeline", "gcc",
                                       "--schemes", "magic"])

    def test_obs_sample_defaults(self):
        args = build_parser().parse_args(["obs", "sample", "gcc"])
        assert args.every == 1000 and not args.json and args.out is None

    def test_simulate_report_flags(self):
        args = build_parser().parse_args(
            ["simulate", "gcc", "--report", "--stats-json", "s.json"]
        )
        assert args.report and args.stats_json == "s.json"

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.root is None and args.baseline is None
        assert not args.json and not args.strict and not args.update_baseline

    def test_lint_flags(self):
        args = build_parser().parse_args(
            ["lint", "--strict", "--json", "--baseline", "b.txt"]
        )
        assert args.strict and args.json and args.baseline == "b.txt"


class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "16 GB PCM" in out
        assert "M=64, N=16" in out
        assert "cc-NVM" in out

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "success=True" in out
        assert "located=['0x1000']" in out

    def test_simulate_runs(self, capsys):
        assert main(["simulate", "namd", "--length", "300"]) == 0
        out = capsys.readouterr().out
        assert "cc-NVM on namd" in out
        assert "IPC" in out

    def test_simulate_report_and_stats_json(self, capsys, tmp_path):
        import json

        stats_path = tmp_path / "stats.json"
        assert main(["simulate", "namd", "--length", "300", "--report",
                     "--stats-json", str(stats_path)]) == 0
        out = capsys.readouterr().out
        assert "statistics for ccnvm" in out or "ccnvm" in out
        assert "p50=" in out  # distributions render percentiles
        doc = json.loads(stats_path.read_text())
        assert any(key.startswith("ccnvm.controller.") for key in doc)
        # distributions export the summary-dict shape
        assert any(isinstance(v, dict) and "n" in v for v in doc.values())

    def test_obs_trace_writes_valid_trace(self, capsys, tmp_path):
        import json

        from repro.obs.export import validate_trace

        out_path = tmp_path / "trace.json"
        assert main(["obs", "trace", "namd", "--length", "300",
                     "--out", str(out_path)]) == 0
        assert "valid trace" in capsys.readouterr().out
        trace = json.loads(out_path.read_text())
        assert validate_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert "epoch.drain" in names and "nvm.write" in names

    def test_obs_timeline_runs_and_writes_artifact(self, capsys, monkeypatch,
                                                   tmp_path):
        import json

        monkeypatch.chdir(tmp_path)  # the cache lands here
        assert main(["obs", "timeline", "namd", "--length", "300", "--quiet",
                     "--schemes", "sc", "ccnvm",
                     "--json", "BENCH_obs_headline.json"]) == 0
        out = capsys.readouterr().out
        assert "[coverage]" in out and "100.0%" in out
        doc = json.loads((tmp_path / "BENCH_obs_headline.json").read_text())
        assert doc["bench"] == "obs_headline"
        assert doc["schemes"] == ["sc", "ccnvm"]
        for timeline in doc["timelines"]:
            assert timeline["cycle_coverage"] >= 0.95
            assert timeline["write_coverage"] >= 0.95

    def test_obs_timeline_second_run_hits_cache(self, capsys, monkeypatch,
                                                tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["obs", "timeline", "namd", "--length", "300", "--quiet",
                "--schemes", "ccnvm"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "1 from cache" in capsys.readouterr().out

    def test_obs_sample_emits_csv(self, capsys, tmp_path):
        out_path = tmp_path / "series.csv"
        assert main(["obs", "sample", "namd", "--length", "300",
                     "--every", "500", "--out", str(out_path)]) == 0
        header, first = out_path.read_text().splitlines()[:2]
        assert header.startswith("cycle,")
        assert first.split(",")[0].isdigit()

    def test_faults_sites_lists_catalogue(self, capsys):
        assert main(["faults", "sites"]) == 0
        out = capsys.readouterr().out
        assert "writeback.after_data" in out
        assert "recovery.before_root_set" in out
        assert "reached by: ccnvm_no_ds, ccnvm" in out

    def test_faults_sites_scheme_filter(self, capsys):
        assert main(["faults", "sites", "--scheme", "no_cc"]) == 0
        out = capsys.readouterr().out
        assert "reachable by no_cc" in out
        assert "writeback.before_data" in out
        assert "daq.after_reserve" not in out

    def test_faults_sites_json(self, capsys):
        import json

        assert main(["faults", "sites", "--json", "--scheme", "osiris_plus"]) == 0
        catalogue = json.loads(capsys.readouterr().out)
        names = [s["name"] for s in catalogue]
        assert "writeback.after_stoploss" in names
        assert "wpq.mid_batch" not in names
        assert all(
            set(s) == {"name", "component", "description", "schemes"}
            for s in catalogue
        )

    def test_crash_replay_fixture(self, capsys):
        fixture = __import__("pathlib").Path(
            __file__
        ).parent.parent / "fixtures" / "crash_reproducer_torn_batch.json"
        assert main(["crash", "replay", str(fixture)]) == 0
        out = capsys.readouterr().out
        assert "failure reproduced" in out
        assert "outcome FAILED" in out

    def test_crash_campaign_smoke(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # the cache lands here
        assert main([
            "crash", "campaign", "--schemes", "ccnvm", "--profiles", "hotset",
            "--steps", "24", "--nested-depth", "2", "--quiet",
            "--json", "crash.json", "--reproducers", "repros",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out and "(0 failed)" in out
        assert "campaign ok" in out
        import json

        summary = json.loads((tmp_path / "crash.json").read_text())
        assert summary["totals"]["violations"] == 0
        assert summary["grid"]["ccnvm"]["hotset"]["nested_ok"]
        # No violations -> the reproducer directory exists but is empty.
        assert list((tmp_path / "repros").iterdir()) == []

    def test_empty_crash_campaign_fails(self, capsys):
        assert main(["crash", "campaign", "--shards", "0", "--no-cache"]) != 0
        assert "shards must be at least 1" in capsys.readouterr().err

    def test_crash_ace_smoke(self, capsys):
        assert main(["crash", "ace", "--k", "2", "--list"]) == 0
        out = capsys.readouterr().out
        assert "ace enumeration @ k=2: 8 canonical workload(s)" in out
        assert "ace-k2-01-11" in out

    @pytest.mark.parametrize("k", ["0", "9"])
    def test_crash_ace_rejects_k_out_of_range(self, capsys, k):
        assert main(["crash", "ace", "--k", k]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ace k must be in 1..6" in err

    def test_faults_run_that_injects_nothing_fails(self, capsys):
        assert main([
            "faults", "run", "--schemes", "no_cc", "--sites", "wpq.before_end",
            "--no-cache", "--quiet",
        ]) != 0
        err = capsys.readouterr().err
        assert "wpq.before_end" in err and "no_cc" in err

    def test_faults_run_restricted(self, capsys, tmp_path):
        assert main([
            "faults", "run", "--schemes", "ccnvm",
            "--sites", "wpq.before_end", "--steps", "48",
            "--export", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert (tmp_path / "fault_campaign.csv").exists()
        assert (tmp_path / "fault_campaign.json").exists()

    def test_lint_runs_clean_on_repo(self, capsys, monkeypatch):
        import repro

        repo_root = __import__("pathlib").Path(
            repro.__file__
        ).resolve().parents[2]
        monkeypatch.chdir(repo_root)
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "repro lint:" in out
        assert "0 finding(s)" in out

    def test_lint_json_emits_report(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.chdir(tmp_path)  # no baseline here: finding surfaces
        assert main(["lint", "--json"]) in (0, 1)
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"counts", "findings", "rules", "root",
                            "schema_version"}
        assert set(doc["rules"]) == {
            "P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7",
            "D0", "D1", "D2", "B0",
        }

    def test_lint_update_baseline_writes_file(self, capsys, monkeypatch,
                                              tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--update-baseline"]) == 0
        baseline = tmp_path / "lint-baseline.txt"
        assert baseline.exists()
        # the rewritten baseline makes the next strict run clean
        capsys.readouterr()
        assert main(["lint", "--strict"]) == 0

    @pytest.mark.slow
    def test_evaluate_runs_small(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # the cache lands here
        assert main(["evaluate", "--length", "300", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out
        assert "Figure 5(b)" in out
        assert "average" in out
        assert "orchestration: 40 specs: 40 executed" in out

    @pytest.mark.slow
    def test_evaluate_second_run_is_served_from_cache(self, capsys,
                                                      monkeypatch, tmp_path):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "--length", "300", "--quiet",
                     "--json", "BENCH_fig5.json"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--length", "300", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 40 from cache" in out
        artifact = json.loads((tmp_path / "BENCH_fig5.json").read_text())
        assert artifact["benchmark"] == "fig5"
        assert len(artifact["workloads"]) == 8
        capsys.readouterr()
        assert main(["runs", "status", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["stats"]["hits"] >= 40

    @pytest.mark.slow
    def test_evaluate_no_cache_reexecutes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "--length", "300", "--quiet", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--length", "300", "--quiet", "--no-cache"]) == 0
        assert "40 executed, 0 from cache" in capsys.readouterr().out

    def test_runs_status_on_empty_cache(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["runs", "status"]) == 0
        assert "no cached results" in capsys.readouterr().out

    def test_runs_gc_reports_scope(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["runs", "gc", "--all"]) == 0
        assert "all generations" in capsys.readouterr().out

    def test_run_option_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.jobs == 1 and not args.no_cache
        assert args.timeout is None and args.json is None
        args = build_parser().parse_args(
            ["faults", "run", "--jobs", "4", "--no-cache"]
        )
        assert args.jobs == 4 and args.no_cache
