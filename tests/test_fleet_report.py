"""The fleet health report: its dashboards, SLO accounting and sampling.

Acceptance checks for the telemetry plane's user-facing surface:

- ``repro fleet-report`` output is **byte-identical** in line and on the
  forked fan-out for the same chaos run (everything it
  reads is seed-deterministic: span structure, virtual costs, rollups,
  sampling verdicts);
- the ``--json`` rendering of a pinned replay matches a committed golden
  file byte-for-byte, so any drift in rollups, SLO arithmetic, sampling,
  or JSON canonicalization fails loudly;
- the CLI smoke mode rebuilds the report from scratch and verifies its
  own determinism.

SLOs are checked with exact counts against hand-built rollup snapshots:
availability counts degraded-as-served (the paper's graceful-degradation
contract), latency objectives count threshold-beaters, budgets divide
exactly, and the paired long/short lookback construction pages on fast
burns while staying quiet on slow leaks that only the ticket rule should
catch.

The sampler's contract has three legs:

- **purity**: a verdict is a pure function of ``(seed, trace_id)`` plus
  the trace's own deterministic summary — never of worker count, arrival
  order, or what else is in the batch (the slowest-``k`` reservoir is
  the one deliberate exception, and it is order-independent too);
- **retention**: every trace with a degraded or failed root, a deadline
  expiry or an open breaker has an errored span, so the one always-keep
  rule keeps it at any head rate;
- **the bill**: at the million-query extrapolation the sampler cuts
  span volume by at least 10x while retaining 100% of the above.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs import collect_spans
from repro.obs.fleet_report import (
    AVAILABILITY,
    DROPPED,
    KEEP_ERROR,
    KEEP_HEAD,
    KEEP_SLOW,
    LATENCY,
    SLODefinition,
    TraceSummary,
    default_slos,
    evaluate_slos,
    head_score,
    render_fleet_report,
    report_from_replay,
    report_from_spans,
    report_to_json,
    sample,
    summarize_forest,
    summarize_outcomes,
)
from repro.obs.timeseries import (
    E2E_METRIC,
    QUERIES_METRIC,
    RollupStore,
    TTFP_METRIC,
    rollups_from_spans,
)
from repro.obs.trace import QUERY
from repro.serving import (
    PlanExecutor,
    default_chaos_plan,
    default_policies,
    resilient_executor,
)
from repro.serving.cluster import AdmissionControl, Cluster, replay_cluster

from tests.test_obs import FAST_RETRY, make_query, stub_services

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "fixtures" / "fleet" / "fleet-report.json"

#: In line (the reference), then fanned out on forked processes.
WORKER_COUNTS = (1, 2)


def chaos_cluster():
    """A two-replica stub fleet under the canonical chaos plan."""
    executors = [
        resilient_executor(
            PlanExecutor(stub_services(), trace_seed=5),
            policies=FAST_RETRY,
            fault_plan=default_chaos_plan(4),
        )
        for _ in range(2)
    ]
    return Cluster(executors, policy="least-loaded", seed=5)


def chaos_spans(workers):
    cluster = chaos_cluster()
    queries = [make_query(f"query {i}") for i in range(10)]
    responses = cluster.run_all(queries, workers=workers)
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
        for workers in WORKER_COUNTS:
            report = report_from_spans(chaos_spans(workers), window=4.0)
            rendered[workers] = (
                render_fleet_report(report), report_to_json(report)
            )
        assert rendered[1] == rendered[2]
        text, payload = rendered[1]
        assert "Fleet overview" in text and "Trace sampling" in text
        assert payload.endswith("\n")

    def test_live_rollup_store_identical_across_backends(self):
        snapshots = {
            workers: rollups_from_spans(chaos_spans(workers), window=4.0)
            for workers in WORKER_COUNTS
        }
        assert snapshots[1] == snapshots[2]
        assert snapshots[1].counter_total(QUERIES_METRIC) == 10

    def test_measured_and_deterministic_stores_side_by_side(self):
        # One type, two instances: ``metrics`` takes measured seconds, the
        # span projection only what the seed determines; a traced shed
        # query is counted once, from its router span.
        from repro.obs.timeseries import (
            DEPTH_METRIC,
            E2E_METRIC,
            REJECTED_METRIC,
            ROUTER_WAIT_METRIC,
        )
        queries = [make_query(f"query {i}") for i in range(20)]
        for trace_seed in (None, 5):
            rolled = {}
            for workers in WORKER_COUNTS:
                metrics = RollupStore()
                cluster = Cluster(
                    [PlanExecutor(stub_services(), trace_seed=trace_seed)
                     for _ in range(2)],
                    seed=5, admission=AdmissionControl(drop_rate=0.4, seed=1),
                )
                cluster.metrics = metrics
                responses = cluster.run_all(queries, workers=workers)
                shed = sum(1 for r in responses if "ROUTER" in r.failures)
                assert shed > 0
                measured = metrics.snapshot()
                rolled[workers] = rollups_from_spans(
                    collect_spans(responses), window=16.0
                )
                assert measured.counter_total(QUERIES_METRIC, status="failed") == shed
                assert measured.counter_total(QUERIES_METRIC) == 20
                assert measured.merged_panel(E2E_METRIC).observed == 20
                assert measured.merged_panel(DEPTH_METRIC) is None
                if trace_seed is not None:
                    assert rolled[workers].counter_total(REJECTED_METRIC) == shed
                    assert rolled[workers].merged_panel(DEPTH_METRIC).observed == 20
                    assert measured.merged_panel(ROUTER_WAIT_METRIC).observed == 20 - shed
            assert rolled[1] == rolled[2]


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

        spans = chaos_spans(1)
        path = tmp_path / "spans.jsonl"
        path.write_text(to_jsonl(spans, timing=False))
        assert main(["fleet-report", str(path)]) == 0
        out = capsys.readouterr()
        assert "source                spans" in out.out


# ---------------------------------------------------------------------------
# SLO accounting and multi-window burn-rate alerts
# ---------------------------------------------------------------------------


def store_with_failures(per_window_failed, per_window_ok=96, windows=40):
    store = RollupStore(window_seconds=1.0)
    for w in range(windows):
        t = float(w)
        store.inc(QUERIES_METRIC, t, amount=per_window_ok, status="ok")
        store.inc(QUERIES_METRIC, t, amount=2, status="degraded")
        failed = per_window_failed(w) if callable(per_window_failed) \
            else per_window_failed
        if failed:
            store.inc(QUERIES_METRIC, t, amount=failed, status="failed")
    return store.snapshot()


def evaluate_one(snapshot, slo):
    (status,) = evaluate_slos(snapshot, [slo])
    return status


class TestDefinitions:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SLODefinition(name="x", kind=AVAILABILITY, target=1.0)
        with pytest.raises(ConfigurationError):
            SLODefinition(name="x", kind=LATENCY, target=0.99, threshold=0.0)

    def test_default_slos_cover_the_three_objectives(self):
        slos = default_slos(e2e_threshold=2.0, ttfp_threshold=0.4)
        by_name = {slo.name: slo for slo in slos}
        assert by_name["availability"].kind == AVAILABILITY
        assert by_name["e2e-p99"].metric == E2E_METRIC
        assert by_name["e2e-p99"].threshold == 2.0
        assert by_name["ttfp-p95"].metric == TTFP_METRIC
        assert by_name["ttfp-p95"].target == 0.95
        assert abs(by_name["availability"].budget - 0.001) < 1e-12


class TestAvailability:
    def test_degraded_counts_as_served(self):
        snapshot = store_with_failures(0)
        slo = SLODefinition(name="avail", kind=AVAILABILITY, target=0.999)
        status = evaluate_one(snapshot, slo)
        assert status.bad == 0
        assert status.good == 40 * 98          # ok + degraded
        assert status.compliance == 1.0
        assert status.met and status.budget_consumed == 0.0

    def test_exact_budget_accounting(self):
        # 2 failures per window over 100 total -> bad fraction 0.02,
        # against a 0.99 target -> budget burned exactly 2x over.
        snapshot = store_with_failures(2)
        slo = SLODefinition(name="avail", kind=AVAILABILITY, target=0.99)
        status = evaluate_one(snapshot, slo)
        assert status.bad == 80
        assert status.compliance == 0.98
        assert status.budget_consumed == pytest.approx(2.0)
        assert not status.met


class TestLatency:
    def test_threshold_beaters_are_good(self):
        store = RollupStore(window_seconds=1.0)
        for i, value in enumerate((0.1, 0.2, 0.3, 1.5, 2.5)):
            store.observe(E2E_METRIC, float(i % 2), value)
        slo = SLODefinition(name="e2e", kind=LATENCY, target=0.99,
                            metric=E2E_METRIC, threshold=1.0)
        status = evaluate_one(store.snapshot(), slo)
        assert (status.good, status.bad) == (3, 2)
        assert status.compliance == 0.6


class TestBurnRateAlerts:
    def test_fast_burn_pages_slow_leak_tickets(self):
        # Windows 10-13 melt down (50% failures); elsewhere clean.
        meltdown = store_with_failures(lambda w: 96 if 10 <= w < 14 else 0)
        slo = SLODefinition(name="avail", kind=AVAILABILITY, target=0.99)
        status = evaluate_one(meltdown, slo)
        names = {f.alert for f in status.firings}
        assert "page" in names
        # a slow ~3%-of-traffic leak never reaches the 8x page factor
        # (not exactly 2% — a burn sitting on the factor boundary would
        # make the test hinge on one float ulp)
        leak = store_with_failures(3)
        leak_status = evaluate_one(leak, slo)
        leak_names = {f.alert for f in leak_status.firings}
        assert leak_names == {"ticket"}

    def test_firing_requires_both_lookbacks(self):
        # A single bad window inside a long clean history: the short
        # lookback spikes but the long lookback dilutes below the factor,
        # so the page rule stays quiet.
        blip = store_with_failures(lambda w: 20 if w == 30 else 0)
        slo = SLODefinition(name="avail", kind=AVAILABILITY, target=0.99)
        status = evaluate_one(blip, slo)
        assert "page" not in {f.alert for f in status.firings}

    def test_clean_horizon_never_fires(self):
        snapshot = store_with_failures(0)
        slo = SLODefinition(name="avail", kind=AVAILABILITY, target=0.999)
        status = evaluate_one(snapshot, slo)
        assert status.firings == ()


class TestEvaluateSlos:
    def test_skips_objectives_without_data(self):
        snapshot = store_with_failures(0)  # QUERIES only, no latency panels
        statuses = evaluate_slos(snapshot, default_slos())
        assert [s.slo.name for s in statuses] == ["availability"]

    def test_replay_snapshot_supports_all_three(self):
        from repro.datacenter.arrivals import PoissonProcess
        from repro.datacenter.simulation import exponential_sampler

        result = replay_cluster(
            PoissonProcess(rate=20.0),
            exponential_sampler(0.05, seed=2),
            600,
            n_replicas=2,
            seed=2,
        )
        statuses = evaluate_slos(result.rollups(), default_slos())
        assert [s.slo.name for s in statuses] == [
            "availability", "e2e-p99", "ttfp-p95"
        ]
        for status in statuses:
            assert status.total > 0


# ---------------------------------------------------------------------------
# Trace sampling: head coin purity
# ---------------------------------------------------------------------------


def make_summary(trace_id, ordinal=0, n_spans=3, latency=0.1, errored=False):
    return TraceSummary(
        trace_id=trace_id, ordinal=ordinal, n_spans=n_spans, latency=latency,
        errored=errored,
    )


def by_trace(summaries, head_rate, seed, top_k):
    """``{trace_id: reason}`` of one :func:`sample` call."""
    reasons = sample(summaries, head_rate, seed, top_k)
    return {s.trace_id: reason for s, reason in zip(summaries, reasons)}


def tail_traces(spans):
    """Trace ids with a degraded or failed root, a DEADLINE code, or an
    attempt that met an open breaker."""
    return {
        span.trace_id
        for span in spans
        if span.error_code == "DEADLINE"
        or span.attributes.get("breaker") == "open"
        or (span.kind == QUERY and (
            span.attributes.get("degraded") or span.attributes.get("failed")
        ))
    }


class TestHeadSampling:
    def test_score_is_pure_and_uniform_ish(self):
        scores = [head_score(0, f"trace-{i}") for i in range(2_000)]
        assert scores == [head_score(0, f"trace-{i}") for i in range(2_000)]
        assert all(0.0 <= s < 1.0 for s in scores)
        in_head = sum(1 for s in scores if s < 0.1)
        assert 120 <= in_head <= 280  # ~10% +/- sampling noise

    def test_seed_changes_the_sample(self):
        summaries = [make_summary(f"trace-{i}") for i in range(500)]
        kept0 = {t for t, r in by_trace(summaries, 0.1, 0, 0).items() if r != DROPPED}
        kept1 = {t for t, r in by_trace(summaries, 0.1, 1, 0).items() if r != DROPPED}
        assert kept0 != kept1

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        trace_id=st.text(alphabet="0123456789abcdef", min_size=1, max_size=32),
        rate=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_decision_pure_in_seed_and_trace_id(self, seed, trace_id, rate):
        summaries = [make_summary(trace_id)]
        (first,) = sample(summaries, rate, seed, 0)
        assert [first] == sample(summaries, rate, seed, 0)
        assert first in (KEEP_HEAD, DROPPED)
        # monotone in the rate: raising the rate never drops a kept trace
        higher = sample(summaries, min(1.0, rate + 0.1), seed, 0)
        assert first == DROPPED or higher == [KEEP_HEAD]


# ---------------------------------------------------------------------------
# The always-keep rule and retention
# ---------------------------------------------------------------------------


class TestTailRules:
    def test_every_tail_trace_has_an_errored_span(self):
        # The fact the single ``error`` rule rests on: a degraded or failed
        # root, a DEADLINE code and an open breaker each come with an errored
        # span in the same trace.  Checked over stub fleets under the chaos
        # plan with the CLI's resilience policies (deadlines and breakers
        # armed), over a live shedding fleet, and over replay outcomes.
        seen = {"deadline": 0, "breaker": 0, "degraded": 0}
        for chaos_seed in range(6):
            for n_replicas in (1, 2):
                for workers in WORKER_COUNTS:
                    executors = [
                        resilient_executor(
                            PlanExecutor(stub_services(), trace_seed=chaos_seed),
                            policies=default_policies(chaos_seed),
                            fault_plan=default_chaos_plan(chaos_seed),
                        )
                        for _ in range(n_replicas)
                    ]
                    queries = [
                        make_query(f"query {i}", with_image=(i % 2 == 0))
                        for i in range(20)
                    ]
                    cluster = Cluster(executors, seed=chaos_seed)
                    spans = collect_spans(cluster.run_all(queries, workers=workers))
                    errored = {s.trace_id for s in spans if s.status == "error"}
                    assert tail_traces(spans) <= errored
                    for span in spans:
                        seen["deadline"] += span.error_code == "DEADLINE"
                        seen["breaker"] += span.attributes.get("breaker") == "open"
                        seen["degraded"] += bool(span.attributes.get("degraded"))
        assert all(seen.values()), seen

        shedding = Cluster(
            [PlanExecutor(stub_services(), trace_seed=5) for _ in range(2)],
            seed=5, admission=AdmissionControl(drop_rate=0.4, seed=1),
        )
        spans = collect_spans(shedding.run_all(
            [make_query(f"query {i}") for i in range(20)]
        ))
        shed = tail_traces(spans)
        assert shed and shed <= {s.trace_id for s in spans if s.status == "error"}

        result = shedding_replay()
        summaries = summarize_outcomes(result.outcomes, trace_seed=13)
        assert [s.errored for s in summaries] == [
            not outcome.admitted for outcome in result.outcomes
        ]

    def test_always_keep_rules_ignore_head_rate(self):
        summaries = [
            make_summary(f"t{i}", ordinal=i, errored=(i % 3 != 1))
            for i in range(60)
        ]
        reasons = by_trace(summaries, 0.0, 0, 0)
        for summary in summaries:
            expected = KEEP_ERROR if summary.errored else DROPPED
            assert reasons[summary.trace_id] == expected

    def test_slowest_reservoir_is_order_independent(self):
        rng = random.Random(3)
        summaries = [
            make_summary(f"t{i}", ordinal=i, latency=rng.random())
            for i in range(100)
        ]
        baseline = by_trace(summaries, 0.0, 0, 5)
        assert sum(1 for reason in baseline.values() if reason != DROPPED) == 5
        assert set(baseline.values()) == {KEEP_SLOW, DROPPED}
        shuffled = list(summaries)
        rng.shuffle(shuffled)
        assert baseline == by_trace(shuffled, 0.0, 0, 5)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        n=st.integers(min_value=1, max_value=60),
        head_rate=st.floats(min_value=0.0, max_value=1.0),
        order_seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_verdicts_pure_under_arrival_order(
        self, seed, n, head_rate, order_seed
    ):
        rng = random.Random(seed)
        summaries = [
            make_summary(
                f"t{i:04x}", ordinal=i,
                latency=round(rng.random(), 6),
                errored=rng.random() < 0.2,
            )
            for i in range(n)
        ]
        baseline = by_trace(summaries, head_rate, seed, 4)
        shuffled = list(summaries)
        random.Random(order_seed).shuffle(shuffled)
        assert baseline == by_trace(shuffled, head_rate, seed, 4)
        # retention invariant, at any head rate
        for summary in summaries:
            if summary.errored:
                assert baseline[summary.trace_id] == KEEP_ERROR


# ---------------------------------------------------------------------------
# In-line vs fan-out identity on chaos (live spans)
# ---------------------------------------------------------------------------


class TestCrossBackend:
    def _chaos_spans(self, workers):
        executor = resilient_executor(
            PlanExecutor(stub_services(), trace_seed=9),
            policies=FAST_RETRY,
            fault_plan=default_chaos_plan(4),
        )
        queries = [make_query(f"query {i}") for i in range(12)]
        responses = executor.run_all(
            queries, workers=workers, on_error="degrade"
        )
        return collect_spans(responses)

    def test_verdicts_identical_across_backends_under_chaos(self):
        verdicts = {}
        for workers in WORKER_COUNTS:
            summaries = summarize_forest(self._chaos_spans(workers))
            verdicts[workers] = list(zip(
                [s.trace_id for s in summaries], sample(summaries, 0.2, 1, 3)
            ))
        assert verdicts[1] == verdicts[2]
        # degraded/failed chaos traces all survive
        tail = tail_traces(self._chaos_spans(1))
        kept = {trace for trace, reason in verdicts[1] if reason != DROPPED}
        assert tail and tail <= kept


# ---------------------------------------------------------------------------
# The acceptance bill: >=10x reduction, 100% interesting-trace retention
# ---------------------------------------------------------------------------


def shedding_replay():
    from repro.datacenter.arrivals import PoissonProcess
    from repro.datacenter.simulation import exponential_sampler

    # A realistic overload shoulder: ~5% rejects, not a meltdown —
    # the error class must stay small for the 10x bill to be honest.
    result = replay_cluster(
        PoissonProcess(rate=110.0),
        exponential_sampler(0.02, seed=13),
        4_000,
        policy="least-loaded",
        n_replicas=2,
        seed=13,
        admission=AdmissionControl(max_depth=40, seed=13),
    )
    assert result.n_rejected > 0  # the error class is populated
    return result


class TestAcceptance:
    def test_million_query_bill(self):
        result = shedding_replay()
        summaries = summarize_outcomes(result.outcomes, trace_seed=13)
        report = report_from_replay(result, head_rate=0.05, top_k=8, trace_seed=13)
        stats = report.sampling
        extrapolated = stats.extrapolate(1_000_000)
        assert extrapolated.total_traces == 1_000_000
        # acceptance: >=10x span reduction at the million-query scale...
        assert extrapolated.span_reduction >= 10.0
        assert stats.span_reduction >= 10.0
        # ...while keeping 100% of the rejected (errored) traces
        reasons = by_trace(summaries, 0.05, 0, 8)
        rejected = [
            summary.trace_id
            for summary, outcome in zip(summaries, result.outcomes)
            if not outcome.admitted
        ]
        assert rejected  # the admission rejects made some
        assert all(reasons[trace] == KEEP_ERROR for trace in rejected)
        assert dict(stats.by_reason)[KEEP_ERROR] == len(rejected)

    def test_stats_reasons_partition_kept(self):
        stats = report_from_replay(
            shedding_replay(), head_rate=0.05, top_k=8, trace_seed=13
        ).sampling
        assert sum(count for _, count in stats.by_reason) == stats.kept_traces
        reasons = {reason for reason, _ in stats.by_reason}
        assert reasons <= {KEEP_ERROR, KEEP_SLOW, KEEP_HEAD}
