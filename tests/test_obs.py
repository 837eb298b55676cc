"""Tests for the observability layer (ISSUE 4).

Four tiers:

- unit tests for deterministic span identity, tracer nesting discipline,
  and the exporters (JSONL round-trip, deterministic mode, Chrome trace);
- metrics: log-bucket placement, exact numpy-matching percentiles, and the
  exact snapshot/merge protocol;
- executor integration over module-level picklable stubs: the same span
  forest (IDs, parentage, attributes) on every backend, attempt spans and
  fault annotations under resilience wrappers, wait times of threaded branches,
  and byte-identical deterministic exports across chaos replays;
- the ``trace-report`` CLI end-to-end, with its percentiles checked
  against an independent numpy computation over the raw span durations.
"""

import json

import numpy as np
import pytest

from repro.asr.audio import Waveform
from repro.core import IPAQuery
from repro.datacenter import PoissonProcess, histogram_sampler
from repro.errors import (
    ConfigurationError,
    InjectedFaultError,
    SiriusError,
    TraceError,
)
from repro.imm.image import Image
from repro.obs import (
    ATTEMPT,
    QUERY,
    SECTION,
    SERVICE,
    RollupStore,
    Span,
    Tracer,
    collect_spans,
    format_service_summary,
    metrics_from_spans,
    percentile,
    read_jsonl,
    render_report,
    span_from_dict,
    span_id_for,
    span_to_dict,
    to_chrome_trace,
    to_jsonl,
    trace_id_for,
    use_tracer,
    write_jsonl,
)
from repro.obs.context import section
from repro.obs.critical_path import section_seconds
from repro.obs.trace import KERNEL
from repro.serving import (
    ASR,
    CLASSIFY,
    IMM,
    QA,
    AsrSession,
    FaultInjector,
    FaultPlan,
    FaultRule,
    PlanExecutor,
    ResiliencePolicy,
    ResilientService,
    RetryPolicy,
    Service,
    ServiceRequest,
    default_chaos_plan,
    resilient_executor,
)
from repro.serving.cluster import replay_cluster
from repro.serving.executor import run_handed_off
from repro.serving.identity import span_fingerprint
from repro.serving.faults import ERROR, LATENCY, charge_virtual_seconds


# -- stubs (module level so payloads pickle across the process backend) ------------


class StubText:
    def __init__(self, text):
        self.text = text


class StubClassification:
    is_action = False


class StubQaStats:
    total_hits = 1


class StubAnswer:
    def __init__(self, answer_text):
        self.answer_text = answer_text
        self.stats = StubQaStats()


class StubMatch:
    image_name = "stub-scene"


class StubAsr(Service):
    name, label = ASR, "ASR"

    def invoke(self, request):
        with section("asr.decode"):
            return StubText(request.query.text)


class StubClassifier(Service):
    name, label = CLASSIFY, "CLASSIFY"

    def invoke(self, request):
        return StubClassification()


class StubQa(Service):
    name, label = QA, "QA"

    def invoke(self, request):
        with section("qa.search"):
            pass
        with section("qa.filters"):
            pass
        return StubAnswer(f"answer to {request.payload}")


class StubImm(Service):
    name, label = IMM, "IMM"

    def invoke(self, request):
        return StubMatch()


def stub_services():
    return {ASR: StubAsr(), CLASSIFY: StubClassifier(),
            QA: StubQa(), IMM: StubImm()}


def section_names(response):
    return set(section_seconds(response.spans))


def make_query(text, with_image=False):
    image = Image(np.full((6, 6), 0.5), name="stub-scene") if with_image else None
    return IPAQuery(audio=Waveform(np.ones(64)), image=image, text=text)


def make_queries(n=4):
    return [make_query(f"query {i}", with_image=(i % 2 == 0)) for i in range(n)]


#: No backoff sleeping, no breaker: bare retry armour for the stub tests.
FAST_RETRY = ResiliencePolicy(retry=RetryPolicy(max_attempts=3))


# -- deterministic identity --------------------------------------------------------


class TestIdentity:
    def test_trace_id_is_seeded_and_stable(self):
        assert trace_id_for(7, 0) == trace_id_for(7, 0)
        assert trace_id_for(7, 0) != trace_id_for(7, 1)
        assert trace_id_for(7, 0) != trace_id_for(8, 0)
        assert len(trace_id_for(7, 0)) == 16

    def test_span_id_depends_on_position(self):
        t = trace_id_for(0, 0)
        assert span_id_for(t, "", "query", 0) != span_id_for(t, "", "query", 1)
        assert span_id_for(t, "a", "qa", 0) != span_id_for(t, "b", "qa", 0)
        assert span_id_for(t, "a", "qa", 0) == span_id_for(t, "a", "qa", 0)

    def test_same_named_siblings_get_indices(self):
        tracer = Tracer(seed=1)
        with tracer.trace(0):
            with tracer.span("stemmer"):
                pass
            with tracer.span("stemmer"):
                pass
        ids = {s.span_id for s in tracer.spans}
        assert len(ids) == 3  # root + two distinct stemmer spans


class TestTracer:
    def test_nesting_records_parentage(self):
        tracer = Tracer(seed=2)
        with tracer.trace(5) as root:
            with tracer.span("asr", kind=SERVICE, service="ASR") as child:
                with tracer.span("asr.decode", kind=SECTION) as leaf:
                    pass
        assert child.parent_id == root.span_id
        assert leaf.parent_id == child.span_id
        assert root.ordinal == child.ordinal == leaf.ordinal == 5
        assert all(s.end >= s.start for s in tracer.spans)

    def test_span_without_open_trace_rejected(self):
        tracer = Tracer()
        with pytest.raises(TraceError):
            tracer.begin_span("orphan")

    def test_out_of_order_end_rejected(self):
        tracer = Tracer()
        root = tracer.begin_trace(0)
        tracer.begin_span("inner")
        with pytest.raises(TraceError):
            tracer.end_span(root)

    def test_library_error_marks_span_failed(self):
        tracer = Tracer()
        with pytest.raises(SiriusError):
            with tracer.trace(0):
                with tracer.span("qa"):
                    raise ConfigurationError("boom")
        statuses = {s.name: s.status for s in tracer.spans}
        assert statuses == {"qa": "error", "query": "error"}
        assert all(s.error_code == "CONFIG" for s in tracer.spans)

    def test_foreign_error_still_closes_span(self):
        # Regression: a non-library exception escaping a span used to leave
        # it open on this thread, so the root could not close and the
        # trace's spans were lost.
        tracer = Tracer()
        with tracer.trace(0) as root:
            with pytest.raises(ValueError):
                with tracer.span("kernel", kind=KERNEL):
                    raise ValueError("boom")
            assert tracer.current_span() is root
        assert tracer.current_span() is None
        assert {s.name: s.status for s in tracer.finish()} == {
            "kernel": "ok", "query": "ok",
        }

    def test_resume_nests_under_remote_parent(self):
        parent = Tracer(seed=3)
        with parent.trace(1):
            ctx = parent.context()
            worker = Tracer.resume(ctx)
            with worker.span("qa", service="QA"):
                pass
            parent.adopt(worker.finish())
        spans = parent.spans
        qa = next(s for s in spans if s.name == "qa")
        root = next(s for s in spans if s.kind == QUERY)
        assert qa.parent_id == root.span_id
        assert qa.trace_id == root.trace_id
        assert qa.ordinal == 1

    def test_annotate_accumulates(self):
        tracer = Tracer()
        with tracer.trace(0):
            tracer.annotate("virtual_seconds", 1.0, add=True)
            tracer.annotate("virtual_seconds", 0.5, add=True)
            tracer.annotate("kind", "x")
        (root,) = tracer.spans
        assert root.attributes == {"virtual_seconds": 1.5, "kind": "x"}


# -- exporters ---------------------------------------------------------------------


def sample_forest():
    tracer = Tracer(seed=9)
    with tracer.trace(0):
        with tracer.span("asr", kind=SERVICE, service="ASR"):
            with tracer.span("asr.decode", kind=SECTION):
                pass
        with tracer.span("qa", kind=SERVICE, service="QA",
                         attributes={"attempts": 2}):
            pass
    with tracer.trace(1):
        with tracer.span("asr", kind=SERVICE, service="ASR"):
            pass
    return tracer.spans


class TestExport:
    def test_jsonl_roundtrip(self):
        spans = sample_forest()
        restored = read_jsonl(to_jsonl(spans).splitlines())
        assert [span_to_dict(s) for s in restored] == [
            span_to_dict(s) for s in spans
        ]

    def test_deterministic_export_strips_timing(self):
        spans = sample_forest()
        for line in to_jsonl(spans, timing=False).splitlines():
            record = json.loads(line)
            assert "start" not in record and "end" not in record
            assert "wait" not in record
        restored = read_jsonl(to_jsonl(spans, timing=False).splitlines())
        assert [s.span_id for s in restored] == [s.span_id for s in spans]
        assert all(s.duration == 0.0 for s in restored)

    def test_malformed_lines_rejected(self):
        with pytest.raises(TraceError):
            read_jsonl(["not json"])
        with pytest.raises(TraceError):
            read_jsonl(['["a", "list"]'])
        with pytest.raises(TraceError):
            span_from_dict({"span_id": "x"})  # missing required keys

    def test_file_roundtrip(self, tmp_path):
        spans = sample_forest()
        path = str(tmp_path / "spans.jsonl")
        assert write_jsonl(spans, path) == len(spans)
        assert [s.span_id for s in read_jsonl(path)] == [s.span_id for s in spans]

    def test_chrome_trace_shape(self):
        spans = sample_forest()
        trace = to_chrome_trace(spans)
        events = trace["traceEvents"]
        assert len(events) == len(spans)
        assert {e["ph"] for e in events} == {"X"}
        assert {e["pid"] for e in events} == {0, 1}  # one row group per query
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        qa = next(e for e in events if e["name"] == "qa [QA]")
        assert qa["args"]["attempts"] == 2
        json.dumps(trace)  # must be JSON-serializable

    def test_chrome_branch_lanes_separate_siblings(self):
        spans = sample_forest()
        trace = to_chrome_trace(spans)
        first_query = [e for e in trace["traceEvents"] if e["pid"] == 0]
        lanes = {e["name"]: e["tid"] for e in first_query}
        assert lanes["query"] == 0
        assert lanes["asr [ASR]"] != lanes["qa [QA]"]  # branches side by side
        assert lanes["asr.decode"] == lanes["asr [ASR]"]  # descendants inherit


# -- metrics -----------------------------------------------------------------------


def panel_of(values, metric="h"):
    """The one-series panel of ``values`` (a measured distribution)."""
    store = RollupStore()
    for value in values:
        store.observe(metric, 0.0, float(value))
    return store.snapshot().merged_panel(metric)


def series(store, metric, **labels):
    """One series of a store folded over all windows (``None`` if empty)."""
    return store.snapshot().merged_panel(metric, **labels)


class TestMetrics:
    def test_percentile_matches_numpy(self):
        rng = np.random.default_rng(11)
        samples = list(rng.gamma(2.0, 0.05, size=257))
        for p in (0, 25, 50, 90, 95, 99, 100):
            assert percentile(samples, p) == pytest.approx(
                float(np.percentile(samples, p)), rel=1e-12
            )

    def test_store_is_exact_under_threads(self):
        # run_all(backend="thread") workers observe into one store.
        import threading

        store = RollupStore(window_seconds=50.0)

        def work(worker):
            for i in range(2_000):
                store.observe("serve.e2e.seconds", float(i % 100), float(i % 7))
                store.inc("serve.queries", float(i % 100), status=f"s{worker % 2}")

        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = store.snapshot()
        panel = snapshot.merged_panel("serve.e2e.seconds")
        assert panel.observed == panel.kept == 16_000
        assert panel.weights == tuple(
            8 * sum(1 for i in range(2_000) if i % 7 == v) for v in range(7)
        )
        assert snapshot.counter_total("serve.queries") == 16_000
        assert snapshot.counter_total("serve.queries", status="s0") == 8_000
        assert snapshot.windows() == (0, 1)


# -- executor integration ----------------------------------------------------------


def traced_executor(trace_seed=7, metrics=None, resilient=False, chaos_seed=None):
    executor = PlanExecutor(stub_services(), trace_seed=trace_seed,
                            metrics=metrics)
    if resilient or chaos_seed is not None:
        plan = default_chaos_plan(chaos_seed) if chaos_seed is not None else None
        executor = resilient_executor(executor, policies=FAST_RETRY,
                                      fault_plan=plan)
    return executor


class TestExecutorTracing:
    def test_untraced_by_default(self):
        executor = PlanExecutor(stub_services())
        response = executor.run(make_query("hello"))
        assert response.spans == ()

    def test_run_produces_one_tree_per_query(self):
        executor = traced_executor()
        response = executor.run(make_query("hello"), ordinal=3)
        kinds = [s.kind for s in response.spans]
        assert kinds.count(QUERY) == 1
        root = next(s for s in response.spans if s.kind == QUERY)
        assert root.trace_id == trace_id_for(7, 3)
        assert root.attributes["query_type"] == "VQ"
        by_id = {s.span_id: s for s in response.spans}
        for span in response.spans:
            assert span.parent_id == "" or span.parent_id in by_id
        services = {s.name for s in response.spans if s.kind == SERVICE}
        assert services == {"asr", "classify", "qa"}
        sections = {s.name for s in response.spans if s.kind == SECTION}
        assert {"asr.decode", "qa.search", "qa.filters"} <= sections

    def test_forest_identical_across_backends(self):
        queries = make_queries(4)

        def forest(backend):
            executor = traced_executor(resilient=True, chaos_seed=21)
            responses = executor.run_all(queries, backend=backend,
                                         on_error="degrade")
            return span_fingerprint(responses)

        serial = forest("serial")
        assert serial == forest("thread")
        assert serial == forest("process")

    def test_chaos_replay_exports_byte_identical(self):
        queries = make_queries(6)

        def export():
            executor = traced_executor(resilient=True, chaos_seed=42)
            responses = executor.run_all(queries, on_error="degrade")
            return span_fingerprint(responses)

        assert export() == export()

    def test_retry_records_attempt_spans(self):
        plan = FaultPlan(seed=0, rules={
            QA: (FaultRule(kind=ERROR, rate=1.0, max_attempt=1),),
        })
        executor = traced_executor(resilient=True)
        executor = resilient_executor(
            PlanExecutor(stub_services(), trace_seed=7),
            policies=FAST_RETRY, fault_plan=plan,
        )
        response = executor.run(make_query("hello"))
        attempts = [s for s in response.spans
                    if s.kind == ATTEMPT and s.error_code]
        assert len(attempts) == 1  # first QA attempt failed, retry clean
        (failed,) = attempts
        assert failed.error_code == "INJECTED"
        assert failed.attributes["attempt"] == 0
        # The annotation lands on the innermost open qa span (the stage
        # wrapper section on the serial path).
        qa_attempts = next(s for s in response.spans
                           if s.name == QA and "attempts" in s.attributes)
        assert qa_attempts.attributes["attempts"] == 2
        assert not response.degraded

    def test_fault_annotations_on_spans(self):
        plan = FaultPlan(seed=0, rules={
            QA: (FaultRule(kind=LATENCY, rate=1.0, seconds=0.25),),
        })
        executor = resilient_executor(
            PlanExecutor(stub_services(), trace_seed=7),
            policies=FAST_RETRY, fault_plan=plan,
        )
        response = executor.run(make_query("hello"))
        attempt = next(s for s in response.spans if s.kind == ATTEMPT)
        assert attempt.attributes["fault.kind"] == "latency"
        assert attempt.attributes["virtual_seconds"] == pytest.approx(0.25)
        qa_stage = next(s for s in response.spans
                        if s.kind == SERVICE and s.name == QA)
        assert qa_stage.attributes["virtual_seconds"] == pytest.approx(0.25)

    def test_fatal_failure_marks_root(self):
        plan = FaultPlan(seed=0, rules={
            ASR: (FaultRule(kind=ERROR, rate=1.0),),
        })
        executor = resilient_executor(
            PlanExecutor(stub_services(), trace_seed=7),
            policies=ResiliencePolicy(retry=RetryPolicy(max_attempts=1)),
            fault_plan=plan,
        )
        response = executor.run(make_query("hello"), on_error="degrade")
        assert response.failed
        root = next(s for s in response.spans if s.kind == QUERY)
        assert root.status == "error"
        assert root.error_code == "INJECTED"
        assert root.attributes["failed"] is True

    def test_threaded_branches_measure_wait(self):
        store = RollupStore()
        executor = PlanExecutor(stub_services(), trace_seed=7,
                                metrics=store)
        responses = executor.run_all(make_queries(4), parallel_branches=True)
        spans = collect_spans(responses)
        stage_spans = [s for s in spans if s.kind == SERVICE]
        assert stage_spans and all(s.wait >= 0 for s in stage_spans)
        # Queries 0 and 2 carry an image, so their IMM and QA branches fork
        # onto threads — the dispatch that measures admission-to-start wait.
        assert series(store, "serve.wait.seconds", stage="QA").observed == 2
        assert series(store, "serve.wait.seconds", stage="IMM").observed == 2
        assert series(store, "serve.e2e.seconds").observed == 4
        assert store.snapshot().counter_total("serve.queries", status="ok") == 4

    def test_threaded_branches_account_like_serial(self):
        # Both branches of a VIQ carry injected latency.  The threaded walk
        # used to go through a second bracket that dropped it from the
        # query (a stage outlasting its query) along with the qa/imm
        # sections and their spans.
        plan = FaultPlan(seed=0, rules={
            QA: (FaultRule(kind=LATENCY, seconds=5.0),),
            IMM: (FaultRule(kind=LATENCY, seconds=2.0),),
        })
        query = make_query("hello", with_image=True)

        def run(**kwargs):
            services = {name: FaultInjector(service, plan)
                        for name, service in stub_services().items()}
            return PlanExecutor(services, trace_seed=7).run(query, **kwargs)

        def root_virtual(response):
            root = next(s for s in response.spans if s.kind == QUERY)
            return root.attributes.get("virtual_seconds")

        serial, threaded = run(), run(parallel_branches=True)
        assert root_virtual(serial) == 7.0
        assert root_virtual(threaded) == root_virtual(serial)
        assert threaded.wall_seconds >= 7.0
        for label in ("QA", "IMM"):
            assert threaded.service_seconds[label] <= threaded.wall_seconds
        assert section_names(threaded) == section_names(serial)
        assert {"qa", "imm"} <= section_names(threaded)
        assert span_fingerprint([threaded]) == span_fingerprint([serial])

    def test_threaded_branch_error_keeps_virtual_seconds(self):
        class SlowThenDeadQa(Service):
            name, label = QA, "QA"

            def invoke(self, request):
                with section("qa.search"):
                    charge_virtual_seconds(3.0)
                    raise InjectedFaultError("slow, then dead", service=QA)

        query = make_query("hello", with_image=True)

        def run(**kwargs):
            services = {**stub_services(), QA: SlowThenDeadQa()}
            return PlanExecutor(services, trace_seed=7).run(query, **kwargs)

        serial, threaded = run(), run(parallel_branches=True)
        assert threaded.failures == serial.failures == {"QA": "INJECTED"}
        assert threaded.wall_seconds >= 3.0
        # A failed branch keeps the sections it got through, as in place.
        assert section_names(threaded) == section_names(serial)
        assert span_fingerprint([threaded]) == span_fingerprint([serial])

    def test_failed_session_keeps_profile_like_batch(self):
        # A failed stage keeps the sections it got through wherever it ran:
        # a session's private sections used to be dropped on error.
        class DyingAsr(Service):
            name, label = ASR, "ASR"

            def invoke(self, request):
                with section("asr.decode"):
                    raise InjectedFaultError("dead", service=ASR)

        executor = PlanExecutor({**stub_services(), ASR: DyingAsr()}, trace_seed=7)
        query = make_query("hello")
        batch = executor.run(query, on_error="degrade")
        session = AsrSession(executor.services[ASR], query=query, seed=7)
        session.feed(query.audio)
        streamed = executor.run(
            query, on_error="degrade", precomputed={ASR: session.finish()},
            wall_start=session.opened_at,
        )
        assert streamed.failed and batch.failed
        assert section_names(batch) == {"asr", "asr.decode"}
        assert section_names(streamed) == section_names(batch)
        assert span_fingerprint([streamed]) == span_fingerprint([batch])

    def test_barge_in_after_virtual_latency_bout(self):
        # cancel() closes the service span the way the bracket closes any
        # stage's: virtual latency charged by earlier bouts is stamped on it.
        class SlowFeedSession(AsrSession):
            def feed(self, chunk):
                self._run_bout(lambda: charge_virtual_seconds(1.5))
                return super().feed(chunk)

        session = SlowFeedSession(StubAsr(), seed=7)
        session.feed(make_query("hello").audio)
        session.cancel()
        (span,) = [s for s in session.spans if s.kind == SERVICE]
        assert (span.status, span.error_code) == ("error", "SESSION")
        assert span.attributes == {"cancelled": True, "virtual_seconds": 1.5}

    def test_metrics_recorded_for_plain_runs(self):
        store = RollupStore()
        executor = PlanExecutor(stub_services(), metrics=store)
        executor.run_all(make_queries(3))
        assert series(store, "serve.e2e.seconds").observed == 3
        assert series(store, "serve.service.seconds", stage="QA").observed == 3

    def test_parent_side_metrics_complete_on_every_backend(self):
        # The process backend forks: what run() observes stays in the
        # worker, what run_all records from the responses does not.
        snapshots = {}
        for backend in ("serial", "thread", "process"):
            store = RollupStore()
            executor = PlanExecutor(stub_services(), metrics=store)
            executor.run_all(make_queries(6), backend=backend, workers=2)
            snapshots[backend] = store.snapshot()
        for snapshot in snapshots.values():
            assert snapshot.counter_total("serve.queries", status="ok") == 6
            assert snapshot.counter_total("serve.queries") == 6
            assert snapshot.merged_panel("serve.e2e.seconds").observed == 6
            for stage, n in (("ASR", 6), ("QA", 6), ("IMM", 3)):
                panel = snapshot.merged_panel("serve.service.seconds", stage=stage)
                assert panel.observed == n, stage

    def test_virtual_latency_preserves_stats_fields(self):
        # A handed-off stage reads the bracket's accounting whatever the
        # service is wrapped in: seconds includes charged virtual latency
        # and the measured admission wait survives beside it.
        class ChargingQa(Service):
            name, label = QA, "QA"

            def invoke(self, request):
                charge_virtual_seconds(2.0)
                return StubAnswer("slow")

        import time
        for service in (
            ChargingQa(),
            FaultInjector(ChargingQa(), FaultPlan(seed=0, rules={})),
            ResilientService(ChargingQa(), FAST_RETRY),
        ):
            request = ServiceRequest(payload="q", admitted_at=time.perf_counter())
            outcome = run_handed_off(service, request, True)
            assert outcome.error is None, service
            assert outcome.seconds >= 2.0, service
            assert outcome.wait_seconds > 0.0, service


class TestReport:
    def test_metrics_from_spans_excludes_retries(self):
        spans = sample_forest()
        store = metrics_from_spans(spans)
        assert series(store, "serve.e2e.seconds").observed == 2
        assert series(store, "serve.service.seconds", stage="ASR").observed == 2
        assert series(store, "serve.service.seconds", stage="QA").observed == 1
        assert store.snapshot().counter_total("serve.queries", status="ok") == 2

    def test_render_report_sections(self):
        report = render_report(sample_forest(), mm1_load=None)
        assert "query #0" in report and "query #1" in report
        assert "serve.e2e.seconds" in report
        assert "serve.service.seconds{stage=ASR}" in report
        assert "2 queries" in report

    def test_rendering_does_not_change_the_store(self):
        from repro.obs.report import format_mm1_comparison

        executor = traced_executor()
        spans = collect_spans(executor.run_all(make_queries(8)))
        store = metrics_from_spans(spans)
        before = store.snapshot()
        assert "outcomes: ok=8" in format_service_summary(store)
        assert store.snapshot() == before
        assert "M/M/1" in format_mm1_comparison(store, load=0.5)
        assert store.snapshot() == before
        # render_report builds its own store from the spans it is given
        assert render_report(spans, mm1_load=0.5) == render_report(spans, mm1_load=0.5)
        assert store.snapshot() == before

    def test_report_percentiles_match_numpy(self):
        executor = traced_executor()
        responses = executor.run_all(make_queries(8))
        spans = collect_spans(responses)
        e2e = series(metrics_from_spans(spans), "serve.e2e.seconds")
        durations = [s.duration for s in spans if s.kind == QUERY]
        for p in (50, 95, 99):
            assert e2e.percentile(p) == pytest.approx(
                float(np.percentile(durations, p)), rel=1e-9
            )


class TestTraceReportCli:
    def test_trace_report_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        executor = traced_executor()
        responses = executor.run_all(make_queries(5))
        path = str(tmp_path / "spans.jsonl")
        write_jsonl(collect_spans(responses), path)
        chrome = str(tmp_path / "trace.json")
        assert main(["trace-report", path, "--limit", "2",
                     "--chrome", chrome, "--mm1", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "query #0" in out
        assert "Measured vs M/M/1" in out
        with open(chrome) as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]

    def test_trace_report_rejects_garbage(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text("definitely not json\n")
        assert main(["trace-report", str(path)]) == 2

    def test_trace_report_missing_file(self, tmp_path):
        # Must follow the CLI error contract (error[TRACE], exit 2),
        # not leak a FileNotFoundError traceback.
        from repro.cli import main

        with pytest.raises(TraceError):
            read_jsonl(str(tmp_path / "absent.jsonl"))
        assert main(["trace-report", str(tmp_path / "absent.jsonl")]) == 2

    def test_serve_bench_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve-bench", "--trace", "a.jsonl",
             "--chrome-trace", "b.json", "--metrics"]
        )
        assert args.trace == "a.jsonl"
        assert args.chrome_trace == "b.json"
        assert args.metrics is True


def replay_histogram(histogram, load, n_queries, seed):
    """One replica at utilization ``load``, service drawn from ``histogram``."""
    return replay_cluster(
        PoissonProcess(load / histogram.mean),
        histogram_sampler(histogram, seed=seed + 1),
        n_queries,
        seed=seed,
    )


class TestDatacenterBridge:
    def test_replay_from_histogram(self):
        rng = np.random.default_rng(5)
        histogram = panel_of(rng.gamma(2.0, 0.05, size=200))
        sim = replay_histogram(histogram, load=0.5, n_queries=2000, seed=3)
        assert sim.n_admitted > 0
        assert sim.p99_response >= sim.p95_response
        assert sim.mean_response >= histogram.mean * 0.5

    def test_mm1_percentile_closed_form(self):
        from repro.datacenter.queueing import MM1Queue, mm1_percentile

        t = 0.1 / (1 - 0.5)
        assert mm1_percentile(0.1, 0.5, 50) == pytest.approx(
            -t * np.log(0.5)
        )
        assert mm1_percentile(0.1, 0.5, 99) > mm1_percentile(0.1, 0.5, 95)
        # exponential response time: the mean is MM1Queue's, at lambda = rho/s
        assert t == pytest.approx(MM1Queue(0.1).response_time(0.5 / 0.1))
        with pytest.raises(ConfigurationError):
            mm1_percentile(0.1, 1.5, 95)

    def test_simulated_p99_tracks_mm1_for_exponential_service(self):
        from repro.datacenter import mm1_percentile

        rng = np.random.default_rng(17)
        histogram = panel_of(rng.exponential(0.05, size=4000) + 1e-9)

        sim = replay_histogram(histogram, load=0.6, n_queries=20000, seed=11)
        predicted = mm1_percentile(histogram.mean, 0.6, 95)
        assert sim.p95_response == pytest.approx(predicted, rel=0.25)
