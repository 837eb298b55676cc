"""The benchmark table and the determinism gate.

Gate semantics are locked down on synthetic reports (every trajectory is
hand-built, so the expected verdict is unambiguous); the report shape and
end-to-end determinism use one real run of all 13 benchmarks: the CLI's
``repro bench --check`` of the committed quick baseline, made once per
module.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.bench import (
    BENCHMARKS,
    REPEATS,
    SCHEMA,
    TOLERANCE,
    check_report,
    fingerprint,
    format_findings,
    load_report,
    to_json,
)

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks/baselines/bench-quick.json"


def metric(samples, *, rel_tol=0.0):
    return {"samples": list(samples), "rel_tol": rel_tol}


def make_report(metrics, name="bench.one"):
    return {
        "schema": SCHEMA,
        "tag": "test",
        "quick": True,
        "benchmarks": {name: {"description": "synthetic", "metrics": metrics}},
    }


def kinds(findings):
    return [f.kind for f in findings]


class TestGateTrajectories:
    def test_flat_passes(self):
        base = make_report({"flops": metric([100, 100, 100])})
        cur = make_report({"flops": metric([100, 100, 100])})
        assert check_report(cur, base) == []

    def test_equal_metric_drift_fails(self):
        base = make_report({"checksum": metric([2.0], rel_tol=1e-6)})
        good = make_report({"checksum": metric([2.0 + 1e-9], rel_tol=1e-6)})
        bad = make_report({"checksum": metric([2.1], rel_tol=1e-6)})
        assert check_report(good, base) == []
        assert kinds(check_report(bad, base)) == ["regression"]

    def test_equal_metric_must_hold_on_every_repeat(self):
        # One drifted repeat fails even though the others still match.
        base = make_report({"count": metric([5, 5, 5])})
        cur = make_report({"count": metric([5, 6, 5])})
        findings = check_report(cur, base)
        assert kinds(findings) == ["regression"]
        assert (findings[0].baseline, findings[0].current) == (5, 6)
        assert "bench.one.count" in format_findings(findings)

    def test_any_move_is_a_finding(self):
        # Fewer ops is a finding too: the baseline is re-recorded, not beaten.
        base = make_report({"ops": metric([100, 100, 100])})
        cur = make_report({"ops": metric([90, 90, 90])})
        assert kinds(check_report(cur, base)) == ["regression"]

    def test_wall_clock_never_gates(self):
        # Only metric samples are read: stray timing fields decide nothing.
        base = make_report({"flops": metric([100])})
        cur = make_report({"flops": metric([100])})
        cur["benchmarks"]["bench.one"]["wall_seconds"] = [9.9] * 3
        cur["benchmarks"]["bench.one"]["latency_ms"] = {"p50": 9900.0}
        assert check_report(cur, base) == []

    def test_unstable_baseline_is_a_finding(self):
        base = make_report({"count": metric([5, 6, 5])})
        cur = make_report({"count": metric([5, 5, 5])})
        findings = check_report(cur, base)
        assert kinds(findings) == ["unstable-baseline"]
        assert (findings[0].baseline, findings[0].current) == (5, 6)

    def test_baseline_within_its_tolerance_is_stable(self):
        base = make_report({"checksum": metric([2.0, 2.0 + 1e-9], rel_tol=1e-6)})
        cur = make_report({"checksum": metric([2.0], rel_tol=1e-6)})
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
        # A metric the baseline does not record is not gated (yet).
        base = make_report({})
        cur = make_report({"new": metric([1])})
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
        # A change that loosens a tolerance in code is still held to the
        # committed baseline's.
        base = make_report({"ops": metric([100], rel_tol=0.0)})
        cur = make_report({"ops": metric([150], rel_tol=1.0)})
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
        report["schema"] = "repro.bench/v1"
        path = tmp_path / "old.json"
        path.write_text(to_json(report))
        with pytest.raises(ConfigurationError, match="regenerate"):
            load_report(str(path))


class TestRegistry:
    def test_full_registry(self):
        names = list(BENCHMARKS)
        assert names == sorted(names)
        assert len(names) == 13
        assert {"suite.gmm", "suite.dnn", "suite.stemmer", "suite.regex",
                "suite.crf", "suite.fe", "suite.fd", "serve.chaos",
                "serve.plain"} <= set(names)

    def test_fingerprint_is_stable_and_json_safe(self):
        assert fingerprint("abc") == fingerprint("abc")
        assert fingerprint("abc") != fingerprint("abd")
        assert isinstance(fingerprint("abc"), int)


@pytest.fixture(scope="module")
def gate_run(tmp_path_factory):
    """``repro bench --check`` of the committed quick baseline, run once:
    its exit code, its stdout, and the report it wrote to ``--out``."""
    out = tmp_path_factory.mktemp("bench") / "bench-quick.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["bench", "--check", str(BASELINE), "--tag", "test",
                     "--out", str(out)])
    return code, stdout.getvalue(), load_report(str(out))


@pytest.fixture
def report(gate_run):
    return gate_run[2]


class TestQuickRunEndToEnd:
    def test_report_shape(self, report):
        assert report["schema"] == SCHEMA
        assert set(report) == {"schema", "tag", "quick", "benchmarks"}
        entry = report["benchmarks"]["suite.gmm"]
        assert set(entry) == {"description", "metrics"}
        assert set(entry["metrics"]) == {
            "flops", "bytes", "items", "invocations", "checksum"}
        for name, m in entry["metrics"].items():
            assert len(m["samples"]) == REPEATS
            assert m["rel_tol"] == TOLERANCE.get(name, 0.0)

    def test_gated_samples_deterministic_across_repeats(self, report):
        for m in report["benchmarks"]["suite.gmm"]["metrics"].values():
            assert len(set(m["samples"])) == 1

    def test_self_check_passes_and_doctored_fails(self, report):
        assert check_report(report, report) == []
        doctored = json.loads(to_json(report))
        doctored["benchmarks"]["suite.gmm"]["metrics"]["flops"]["samples"] = [1] * 3
        findings = check_report(doctored, report)
        assert kinds(findings) == ["regression"]


class TestQuerySlice:
    def test_quick_slice_reaches_every_service(self):
        # The serve.* fingerprints gate only the spans the slice produces,
        # so it must hold voice questions and voice-image questions too.
        from repro.obs.bench import _pipeline, _queries
        from repro.obs.trace import collect_spans

        executor = _pipeline().serving
        executor.trace_seed = 0
        try:
            responses = executor.run_all(list(_queries(True)))
        finally:
            executor.trace_seed = None
        names = {span.name for span in collect_spans(responses)}
        assert {"qa.stemmer", "qa.regex", "qa.crf", "imm.fe", "imm.fd"} <= names


class TestCommittedBaseline:
    def test_check_runs_every_benchmark_at_the_baseline_size(self, gate_run):
        # No --quick: the quick baseline sets the size, and all 13
        # benchmarks replay it on every repeat.
        code, out, report = gate_run
        assert code == 0, out
        assert "bench gate: ok" in out
        assert report["quick"] is True
        baseline = load_report(str(BASELINE))
        assert list(report["benchmarks"]) == list(BENCHMARKS)
        assert sorted(baseline["benchmarks"]) == list(BENCHMARKS)

    def test_every_baseline_metric_is_stable(self):
        baseline = load_report(str(BASELINE))
        assert baseline["quick"] is True
        assert check_report(baseline, baseline) == []
