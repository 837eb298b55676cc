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
            ["suite", "--scale", "0.5", "--workers", "2", "--processes"]
        )
        assert args.scale == 0.5
        assert args.workers == 2
        assert args.processes is True

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


class TestCommands:
    def test_suite_command_runs(self, capsys):
        assert main(["suite", "--scale", "0.02", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "stemmer" in output and "Baseline" in output

    def test_design_command_runs(self, capsys):
        assert main(["design"]) == 0
        output = capsys.readouterr().out
        assert "Service speedups" in output
        assert "residual gap" in output

    def test_query_command_runs(self, capsys):
        assert main(["query", "what is the capital of france"]) == 0
        output = capsys.readouterr().out
        assert "Paris" in output

    def test_demo_command_limited(self, capsys):
        assert main(["demo", "--limit", "2"]) == 0
        output = capsys.readouterr().out
        assert "/2 fully correct" in output

    def test_serve_bench_command_runs(self, capsys):
        assert main(["serve-bench", "--queries", "3", "--backend", "serial"]) == 0
        output = capsys.readouterr().out
        assert "Serving throughput" in output
        assert "fan-out speedup over sequential" in output

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
        assert args.action == "run"
        assert args.tag is None
        assert args.repeats == 3
        assert args.quick is False
        assert args.filter == []

    def test_check_forms(self):
        args = build_parser().parse_args(["bench", "--check", "BASE.json"])
        assert args.check == "BASE.json"
        args = build_parser().parse_args(["bench", "check", "BASE.json"])
        assert args.action == "check" and args.baseline == "BASE.json"

    def test_trace_report_analysis_flags(self):
        args = build_parser().parse_args(
            ["trace-report", "s.jsonl", "--critical-path", "--roofline",
             "--tail-quantile", "0.95"]
        )
        assert args.critical_path and args.roofline
        assert args.tail_quantile == 0.95


class TestBenchCommand:
    def test_list(self, capsys):
        assert main(["bench", "list"]) == 0
        output = capsys.readouterr().out
        assert "suite.gmm" in output and "serve.chaos" in output
        assert "gated:" in output

    def test_run_check_roundtrip_and_regression(self, tmp_path, capsys):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "run", "--quick", "--json", "--repeats", "2",
                     "--filter", "suite.gmm", "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "suite.gmm" in output
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.bench/v1"

        # A run gates cleanly against itself …
        assert main(["bench", "--check", str(out),
                     "--current", str(out)]) == 0
        assert "bench gate: ok" in capsys.readouterr().out

        # … and a doctored counter regression fails the gate.
        report["benchmarks"]["suite.gmm"]["metrics"]["flops"]["samples"] = [1, 1]
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(report))
        assert main(["bench", "check", str(out),
                     "--current", str(doctored)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_check_without_baseline_is_config_error(self, capsys):
        assert main(["bench", "check"]) == 2
        assert "error[CONFIG]" in capsys.readouterr().err

    def test_json_without_out_or_tag_is_usage_error(self, capsys):
        assert main(["bench", "run", "--json", "--filter", "suite.gmm"]) == 2
        assert "--out PATH or --tag TAG" in capsys.readouterr().err


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
