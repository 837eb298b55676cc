"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "hello there"])
        assert args.text == "hello there"
        assert args.asr_backend == "gmm"
        assert args.image_scene is None

    def test_suite_flags(self):
        args = build_parser().parse_args(
            ["suite", "--scale", "0.5", "--workers", "2"]
        )
        assert args.scale == 0.5
        assert args.workers == 2

    def test_wer_noise_list(self):
        args = build_parser().parse_args(["wer", "--noise", "0.1", "0.2"])
        assert args.noise == [0.1, 0.2]

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--asr-backend", "tpu"])

    def test_chaos_seed_flag(self):
        args = build_parser().parse_args(["serve-bench", "--chaos", "42"])
        assert args.chaos == 42
        assert build_parser().parse_args(["serve-bench"]).chaos is None

    def test_serve_bench_modes_are_mutually_exclusive(self):
        for argv in (["--chaos", "42", "--streaming"],
                     ["--chaos", "42", "--replicas", "2"],
                     ["--streaming", "--replicas", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(["serve-bench", *argv])
            assert exit_info.value.code == 2, argv

    def test_cluster_bench_is_retired(self):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["cluster-bench"])
        assert exit_info.value.code == 2
        subcommands = build_parser()._subparsers._group_actions[0].choices
        assert len(subcommands) == 10


class TestCommands:
    def test_suite_command_runs(self, capsys):
        assert main(["suite", "--scale", "0.02", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "stemmer" in output and "Baseline" in output
        # The port column names each kernel's one backend.
        ports = {line.split()[1]: line.split()[3] for line in output.splitlines()
                 if line.split()[:1] in (["ASR"], ["QA"], ["IMM"])}
        assert ports == {"gmm": "thread", "dnn": "thread", "stemmer": "process",
                         "regex": "process", "crf": "process", "fe": "process",
                         "fd": "thread"}

    def test_design_command_runs(self, capsys):
        assert main(["design"]) == 0
        output = capsys.readouterr().out
        assert "Service speedups" in output
        assert "residual gap" in output

    def test_query_command_runs(self, capsys):
        assert main(["query", "what is the capital of france"]) == 0
        output = capsys.readouterr().out
        assert "Paris" in output

    def test_query_with_words_outside_the_vocabulary(self, capsys):
        # The digits are spoken but no vocabulary word ends on the last
        # frame: the transcript is the best live path, not a decoding error.
        assert main(["query", "call 911"]) == 0
        transcript = capsys.readouterr().out.split('"')[1]
        assert transcript.startswith("call ")

    def test_demo_command_limited(self, capsys):
        assert main(["demo", "--limit", "2"]) == 0
        output = capsys.readouterr().out
        assert "/2 fully correct" in output

    def test_serve_bench_command_runs(self, capsys):
        assert main(["serve-bench", "--queries", "3", "--workers", "1"]) == 0
        output = capsys.readouterr().out
        assert "Serving throughput" in output
        assert "fan-out speedup over sequential" in output

    def test_serve_bench_replicas_runs_a_traced_fleet(self, tmp_path, capsys):
        from collections import Counter

        from repro.obs import read_jsonl
        from repro.obs.trace import ROUTER

        trace = tmp_path / "fleet.jsonl"
        assert main(["serve-bench", "--replicas", "2", "--queries", "3",
                     "--workers", "2", "--trace", str(trace)]) == 0
        assert "fan-out determinism: ok" in capsys.readouterr().out
        spans = read_jsonl(str(trace))
        routers = Counter(s.trace_id for s in spans if s.kind == ROUTER)
        traces = {s.trace_id for s in spans}
        assert len(traces) == 3
        assert routers == Counter({trace_id: 1 for trace_id in traces})

    @pytest.mark.parametrize("argv", [
        *(["serve-bench", *mode, "--queries", queries]
          for mode in ([], ["--chaos", "42"], ["--streaming"], ["--replicas", "2"])
          for queries in ("0", "-2")),
        ["serve-bench", "--replicas", "0"],
        ["demo", "--limit", "-1"],
        *(["suite", "--scale", scale] for scale in ("-1", "0", "nan", "inf")),
    ], ids=" ".join)
    def test_out_of_range_flags_are_config_errors(self, capsys, argv):
        """Rejected before any pipeline is built or any work runs."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error[CONFIG]" in captured.err
        assert captured.out == ""

    def test_serve_bench_chaos_runs_and_replays(self, capsys):
        assert main(["serve-bench", "--chaos", "42", "--queries", "6",
                     "--mix", "all"]) == 0
        output = capsys.readouterr().out
        assert "Chaos serving (seed=42" in output
        assert "available (ok+degraded)" in output
        assert "replay determinism: ok" in output


class TestBenchParser:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.check is None
        assert args.out is None and args.tag is None
        assert args.quick is False

    def test_check_forms(self):
        args = build_parser().parse_args(["bench", "--check", "BASE.json"])
        assert args.check == "BASE.json"
        # --check is the one spelling: no positional action or baseline,
        # and, since tier-1 runs the whole gate, nothing runs a part of it.
        for retired in (["bench", "check", "BASE.json"], ["bench", "run"],
                        ["bench", "--json"], ["bench", "--repeats", "2"],
                        ["bench", "list"], ["bench", "--filter", "suite.gmm"],
                        ["bench", "--current", "CUR.json"],
                        ["fleet-report", "--smoke"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(retired)

    def test_trace_report_analysis_flags(self):
        args = build_parser().parse_args(
            ["trace-report", "s.jsonl", "--critical-path", "--roofline",
             "--tail-quantile", "0.95"]
        )
        assert args.critical_path and args.roofline
        assert args.tail_quantile == 0.95


class TestBenchCommand:
    def test_run_check_roundtrip_and_regression(self, tmp_path, capsys, monkeypatch):
        import json
        from pathlib import Path

        from repro.obs import bench

        baseline = (Path(__file__).resolve().parents[1]
                    / "benchmarks/baselines/bench-quick.json")
        # The run stands in as the committed baseline itself (a real run
        # replays it: tests/test_bench_gate.py), so tier-1 runs the 13
        # benchmarks once; the run must be asked for the baseline's size.
        sizes = []

        def replay(quick, tag):
            sizes.append(quick)
            return json.loads(baseline.read_text())

        monkeypatch.setattr(bench, "run_benchmarks", replay)

        # A run gates cleanly against its baseline …
        assert main(["bench", "--check", str(baseline)]) == 0
        assert "bench gate: ok" in capsys.readouterr().out

        # … and a copy with suite.gmm's flops doctored, and one disagreeing
        # repeat in suite.gmm's bytes, fails the gate and names both.
        report = json.loads(baseline.read_text())
        assert report["schema"] == "repro.bench/v2"
        metrics = report["benchmarks"]["suite.gmm"]["metrics"]
        metrics["flops"]["samples"] = [1] * 3
        metrics["bytes"]["samples"][1] += 1
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(report))
        assert main(["bench", "--check", str(doctored)]) == 1
        output = capsys.readouterr().out
        assert "[regression] suite.gmm.flops" in output
        assert "[unstable-baseline] suite.gmm.bytes" in output
        assert sizes == [True, True]

    def test_check_without_baseline_is_config_error(self, tmp_path, capsys):
        assert main(["bench", "--check", str(tmp_path / "absent.json")]) == 2
        assert "error[CONFIG]" in capsys.readouterr().err


class TestTraceReportCommand:
    def test_empty_export_is_coded_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace-report", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "error[OBS]" in err and "no spans" in err

    def test_truncated_export_is_coded_error(self, tmp_path, capsys):
        bad = tmp_path / "trunc.jsonl"
        bad.write_text('{"trace_id": "abc", "span_id"')
        assert main(["trace-report", str(bad)]) == 2
        assert "error[TRACE]" in capsys.readouterr().err

    def test_critical_path_and_roofline_sections(self, tmp_path, capsys):
        trace = tmp_path / "spans.jsonl"
        assert main(["serve-bench", "--chaos", "42", "--queries", "4",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace), "--critical-path",
                     "--roofline", "--limit", "1"]) == 0
        output = capsys.readouterr().out
        assert "Critical-path attribution" in output
        assert "Tail attribution" in output
        assert "Roofline placement" in output

    def test_traced_suite_feeds_roofline(self, tmp_path, capsys):
        trace = tmp_path / "suite.jsonl"
        assert main(["suite", "--scale", "0.02", "--workers", "2",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace), "--roofline"]) == 0
        output = capsys.readouterr().out
        assert "Roofline placement (measured intensity" in output
        assert "gmm" in output and "stemmer" in output
