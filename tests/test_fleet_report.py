"""The fleet health report: byte-stable dashboards and the golden JSON.

Acceptance checks for the telemetry plane's user-facing surface:

- ``repro fleet-report`` output is **byte-identical** across the serial,
  thread, and process backends for the same chaos run (everything it
  reads is seed-deterministic: span structure, virtual costs, rollups,
  sampling verdicts);
- the ``--json`` rendering of a pinned replay matches a committed golden
  file byte-for-byte, so any drift in rollups, SLO arithmetic, sampling,
  or JSON canonicalization fails loudly;
- the CLI smoke mode rebuilds the report from scratch and verifies its
  own determinism.
"""

from pathlib import Path

from repro.cli import main
from repro.obs import collect_spans
from repro.obs.fleet_report import (
    render_fleet_report,
    report_from_replay,
    report_from_spans,
    report_to_json,
)
from repro.obs.timeseries import (
    ARRIVALS_METRIC,
    QUERIES_METRIC,
    RollupStore,
    TTFP_METRIC,
)
from repro.serving import PlanExecutor, default_chaos_plan, resilient_executor
from repro.serving.cluster import Cluster, replay_cluster

from tests.test_obs import FAST_RETRY, make_query, stub_services

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "fixtures" / "fleet" / "fleet-report.json"

BACKENDS = ("serial", "thread", "process")


def chaos_cluster(rollups=None):
    """A two-replica stub fleet under the canonical chaos plan."""
    executors = [
        resilient_executor(
            PlanExecutor(stub_services(), trace_seed=5),
            policies=FAST_RETRY,
            fault_plan=default_chaos_plan(4),
        )
        for _ in range(2)
    ]
    return Cluster(executors, policy="least-loaded", seed=5, rollups=rollups)


def chaos_spans(backend):
    cluster = chaos_cluster()
    queries = [make_query(f"query {i}") for i in range(10)]
    responses = cluster.run_all(queries, backend=backend)
    return collect_spans(responses)


def pinned_replay_report():
    """The pinned configuration behind the committed golden file."""
    from repro.datacenter.arrivals import PoissonProcess
    from repro.datacenter.simulation import exponential_sampler
    from repro.serving.cluster import AutoscalerPolicy

    result = replay_cluster(
        PoissonProcess(rate=30.0),
        exponential_sampler(0.05, seed=18),
        600,
        policy="least-loaded",
        n_replicas=2,
        seed=17,
        autoscaler=AutoscalerPolicy(slo_p99=0.4, max_replicas=5),
        tick_seconds=2.0,
    )
    return report_from_replay(result, trace_seed=17)


class TestCrossBackendByteIdentity:
    def test_dashboard_identical_across_backends_under_chaos(self):
        rendered = {}
        for backend in BACKENDS:
            report = report_from_spans(chaos_spans(backend), window=4.0)
            rendered[backend] = (
                render_fleet_report(report), report_to_json(report)
            )
        assert (
            rendered["serial"] == rendered["thread"] == rendered["process"]
        )
        text, payload = rendered["serial"]
        assert "Fleet overview" in text and "Trace sampling" in text
        assert payload.endswith("\n")

    def test_live_rollup_store_identical_across_backends(self):
        snapshots = {}
        for backend in BACKENDS:
            store = RollupStore(window_seconds=4.0)
            cluster = chaos_cluster(rollups=store)
            queries = [make_query(f"query {i}") for i in range(10)]
            cluster.run_all(queries, backend=backend)
            snapshots[backend] = store.snapshot()
        assert (
            snapshots["serial"] == snapshots["thread"]
            == snapshots["process"]
        )
        assert snapshots["serial"].counter_total(ARRIVALS_METRIC) == 10
        assert snapshots["serial"].counter_total(QUERIES_METRIC) == 10

    def test_measured_and_deterministic_stores_side_by_side(self):
        # One type, two instances: ``metrics`` takes measured seconds,
        # ``rollups`` only what the seed determines; a shed query is
        # counted once, traced (router span) or not (placement table).
        from repro.obs.timeseries import (
            DEPTH_METRIC,
            E2E_METRIC,
            REJECTED_METRIC,
            ROUTER_WAIT_METRIC,
        )
        from repro.serving.cluster import AdmissionControl

        queries = [make_query(f"query {i}") for i in range(20)]
        for trace_seed in (None, 5):
            rolled = {}
            for backend in BACKENDS:
                metrics, rollups = RollupStore(), RollupStore()
                cluster = Cluster(
                    [PlanExecutor(stub_services(), trace_seed=trace_seed)
                     for _ in range(2)],
                    seed=5, admission=AdmissionControl(drop_rate=0.4, seed=1),
                    metrics=metrics, rollups=rollups,
                )
                responses = cluster.run_all(queries, backend=backend)
                shed = sum(1 for r in responses if "ROUTER" in r.failures)
                assert shed > 0
                measured, rolled[backend] = metrics.snapshot(), rollups.snapshot()
                assert rolled[backend].counter_total(REJECTED_METRIC) == shed
                assert rolled[backend].counter_total(ARRIVALS_METRIC) == 20
                assert measured.counter_total(QUERIES_METRIC, status="failed") == shed
                assert measured.counter_total(QUERIES_METRIC) == 20
                assert measured.merged_panel(E2E_METRIC).observed == 20
                assert measured.merged_panel(DEPTH_METRIC) is None
                if trace_seed is not None:
                    assert rolled[backend].merged_panel(DEPTH_METRIC).observed == 20
                    assert measured.merged_panel(ROUTER_WAIT_METRIC).observed == 20 - shed
            assert rolled["serial"] == rolled["thread"] == rolled["process"]


class TestGoldenJson:
    def test_json_matches_golden_byte_for_byte(self):
        assert report_to_json(pinned_replay_report()) == GOLDEN.read_text()

    def test_report_is_replay_stable(self):
        first = pinned_replay_report()
        second = pinned_replay_report()
        assert report_to_json(first) == report_to_json(second)
        assert render_fleet_report(first) == render_fleet_report(second)


class TestReplayReportContent:
    def test_ttfp_slo_has_end_to_end_data(self):
        report = pinned_replay_report()
        assert report.rollups.merged_panel(TTFP_METRIC) is not None
        assert "ttfp-p95" in {s.slo.name for s in report.slos}

    def test_autoscaler_trajectory_present(self):
        report = pinned_replay_report()
        assert report.replica_timeline
        counts = {count for _, count in report.replica_timeline}
        assert len(counts) > 1  # the autoscaler actually moved

    def test_extrapolation_scales_to_a_million(self):
        report = pinned_replay_report()
        assert report.extrapolated is not None
        assert report.extrapolated.total_traces == 1_000_000


class TestCli:
    def test_smoke_replay_exits_zero(self, capsys):
        assert main(["fleet-report", "--smoke", "--queries", "300"]) == 0
        out = capsys.readouterr()
        assert "Fleet overview" in out.out
        assert "fleet-report determinism: ok" in out.err

    def test_json_flag_emits_canonical_json(self, capsys):
        import json

        assert main([
            "fleet-report", "--queries", "200", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.fleet-report/v1"
        assert payload["source"] == "replay"

    def test_span_export_mode(self, tmp_path, capsys):
        from repro.obs import to_jsonl

        spans = chaos_spans("serial")
        path = tmp_path / "spans.jsonl"
        path.write_text(to_jsonl(spans, timing=False))
        assert main(["fleet-report", str(path), "--smoke"]) == 0
        out = capsys.readouterr()
        assert "source                spans" in out.out
