"""The benchmark registry and the noise-aware regression gate.

Gate semantics are locked down on synthetic reports (every trajectory is
hand-built, so the expected verdict is unambiguous); registry behaviour
and end-to-end determinism use a real quick run of one cheap kernel
benchmark.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.bench import (
    SCHEMA,
    SCHEMA_VERSION,
    all_benchmarks,
    benchmarks_matching,
    check_report,
    fingerprint,
    format_findings,
    format_report,
    load_report,
    run_benchmarks,
    to_json,
)


def metric(samples, *, gated=True, better="lower", rel_tol=0.0):
    return {"samples": list(samples), "gated": gated, "better": better,
            "rel_tol": rel_tol}


def make_report(metrics, name="bench.one"):
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "tag": "test",
        "quick": True,
        "repeats": 3,
        "benchmarks": {
            name: {
                "description": "synthetic",
                "wall_seconds": [0.01] * 3,
                "latency_ms": {"mean": 10.0, "p50": 10.0, "p95": 10.0,
                               "p99": 10.0},
                "metrics": metrics,
            }
        },
    }


def kinds(findings):
    return [f.kind for f in findings]


class TestGateTrajectories:
    def test_flat_passes(self):
        base = make_report({"flops": metric([100, 100, 100], better="equal")})
        cur = make_report({"flops": metric([100, 100, 100], better="equal")})
        assert check_report(cur, base) == []

    def test_improvement_passes_lower_better(self):
        base = make_report({"ops": metric([100, 102, 101])})
        cur = make_report({"ops": metric([90, 95, 92])})
        assert check_report(cur, base) == []

    def test_regression_fails_lower_better(self):
        base = make_report({"ops": metric([100, 102, 101], rel_tol=0.05)})
        cur = make_report({"ops": metric([120, 118, 119], rel_tol=0.05)})
        findings = check_report(cur, base)
        assert kinds(findings) == ["regression"]
        assert findings[0].baseline == 100
        assert findings[0].current == 118
        assert "bench.one.ops" in format_findings(findings)

    def test_noisy_but_flat_passes_min_of_k(self):
        # One good repeat among noisy ones: min-of-k absorbs the noise.
        base = make_report({"ops": metric([100, 140, 160], rel_tol=0.05)})
        cur = make_report({"ops": metric([150, 103, 155], rel_tol=0.05)})
        assert check_report(cur, base) == []

    def test_regression_fails_higher_better(self):
        base = make_report({"goodput": metric([10, 10, 10], better="higher")})
        cur = make_report({"goodput": metric([8, 8, 8], better="higher")})
        assert kinds(check_report(cur, base)) == ["regression"]

    def test_equal_metric_drift_fails(self):
        base = make_report(
            {"checksum": metric([2.0], better="equal", rel_tol=1e-6)})
        good = make_report(
            {"checksum": metric([2.0 + 1e-9], better="equal", rel_tol=1e-6)})
        bad = make_report(
            {"checksum": metric([2.1], better="equal", rel_tol=1e-6)})
        assert check_report(good, base) == []
        assert kinds(check_report(bad, base)) == ["regression"]

    def test_equal_metric_must_hold_on_every_repeat(self):
        # One drifted repeat fails even though min(samples) still matches.
        base = make_report({"count": metric([5, 5, 5], better="equal")})
        cur = make_report({"count": metric([5, 6, 5], better="equal")})
        findings = check_report(cur, base)
        assert kinds(findings) == ["regression"]
        assert findings[0].current == 6

    def test_wall_clock_never_gates(self):
        # Identical gated metrics, wildly different wall clocks: pass.
        base = make_report({"flops": metric([100], better="equal")})
        cur = make_report({"flops": metric([100], better="equal")})
        cur["benchmarks"]["bench.one"]["wall_seconds"] = [9.9] * 3
        cur["benchmarks"]["bench.one"]["latency_ms"] = {
            "mean": 9900.0, "p50": 9900.0, "p95": 9900.0, "p99": 9900.0}
        assert check_report(cur, base) == []


class TestGateCoverage:
    def test_missing_benchmark_is_a_finding(self):
        base = make_report({"ops": metric([1])})
        cur = make_report({"ops": metric([1])}, name="bench.other")
        assert kinds(check_report(cur, base)) == ["missing-benchmark"]

    def test_missing_gated_metric_is_a_finding(self):
        base = make_report({"ops": metric([1])})
        cur = make_report({"other": metric([1])})
        assert kinds(check_report(cur, base)) == ["missing-metric"]

    def test_ungated_metric_ignored(self):
        base = make_report({"wall": metric([1], gated=False)})
        cur = make_report({})
        assert check_report(cur, base) == []

    def test_new_benchmark_in_current_passes(self):
        base = make_report({"ops": metric([1])})
        cur = make_report({"ops": metric([1])})
        cur["benchmarks"]["bench.new"] = dict(
            cur["benchmarks"]["bench.one"],
            metrics={"ops": metric([999])},
        )
        assert check_report(cur, base) == []

    def test_baseline_spec_wins_over_current(self):
        # A PR that un-gates a metric in code is still held to the
        # committed baseline's promise.
        base = make_report({"ops": metric([100], rel_tol=0.0)})
        cur = make_report({"ops": metric([150], gated=False)})
        assert kinds(check_report(cur, base)) == ["regression"]


class TestReportIO:
    def test_roundtrip(self, tmp_path):
        report = make_report({"ops": metric([1, 2, 3])})
        path = tmp_path / "bench.json"
        path.write_text(to_json(report))
        assert load_report(str(path)) == report

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_report(str(tmp_path / "absent.json"))

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_report(str(path))

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ConfigurationError, match="not a repro.bench"):
            load_report(str(path))

    def test_wrong_version_raises(self, tmp_path):
        report = make_report({})
        report["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(to_json(report))
        with pytest.raises(ConfigurationError, match="regenerate"):
            load_report(str(path))


class TestRegistry:
    def test_full_registry(self):
        names = [b.name for b in all_benchmarks()]
        assert names == sorted(names)
        assert len(names) >= 8
        assert {"suite.gmm", "suite.dnn", "suite.stemmer", "suite.regex",
                "suite.crf", "suite.fe", "suite.fd", "serve.chaos",
                "serve.plain"} <= set(names)

    def test_filtering(self):
        suite_only = [b.name for b in benchmarks_matching(["suite."])]
        assert len(suite_only) == 7
        assert all(name.startswith("suite.") for name in suite_only)
        assert [b.name for b in benchmarks_matching(["gmm"])] == ["suite.gmm"]

    def test_fingerprint_is_stable_and_json_safe(self):
        assert fingerprint("abc") == fingerprint("abc")
        assert fingerprint("abc") != fingerprint("abd")
        assert isinstance(fingerprint("abc"), int)

    def test_repeats_validated(self):
        with pytest.raises(ConfigurationError):
            run_benchmarks(repeats=0)


class TestQuickRunEndToEnd:
    @pytest.fixture(scope="class")
    def report(self):
        return run_benchmarks(filters=["suite.gmm"], quick=True, repeats=2,
                              tag="test")

    def test_report_shape(self, report):
        assert report["schema"] == SCHEMA
        assert report["schema_version"] == SCHEMA_VERSION
        entry = report["benchmarks"]["suite.gmm"]
        assert len(entry["wall_seconds"]) == 2
        gated = {name for name, m in entry["metrics"].items() if m["gated"]}
        assert {"flops", "bytes", "items", "invocations", "checksum"} <= gated

    def test_gated_samples_deterministic_across_repeats(self, report):
        for m in report["benchmarks"]["suite.gmm"]["metrics"].values():
            if m["gated"] and m["better"] == "equal" and m["rel_tol"] == 0.0:
                assert len(set(m["samples"])) == 1

    def test_self_check_passes_and_doctored_fails(self, report):
        assert check_report(report, report) == []
        doctored = json.loads(to_json(report))
        doctored["benchmarks"]["suite.gmm"]["metrics"]["flops"]["samples"] = [1, 1]
        findings = check_report(doctored, report)
        assert kinds(findings) == ["regression"]

    def test_format_report_renders(self, report):
        text = format_report(report)
        assert "suite.gmm" in text
        assert "tag=test, quick" in text
