"""Critical-path attribution: exact decomposition on hand-built forests.

The forests here are constructed span by span, so every expected number
is computable by hand; the chaos-run integration (replay byte-identity
in line and fanned out, fsum exactness on real traces) rides on the stub
serving stack from ``tests.test_obs``.
"""

import json
import math

import pytest

from repro.errors import ConfigurationError, ObsError
from repro.obs.critical_path import (
    VIRTUAL_ATTR,
    analyze_forest,
    format_critical_path_report,
    nearest_rank,
    tail_attribution,
)
from repro.obs.export import span_from_dict, to_jsonl
from repro.obs.trace import ATTEMPT, QUERY, ROUTER, SECTION, SERVICE, Span, collect_spans

from tests.test_obs import make_queries, traced_executor


def mkspan(span_id, parent_id, name, *, kind=SERVICE, service="",
           trace_id="t0", ordinal=0, start=0.0, end=0.0, wait=0.0,
           status="ok", virtual=None, **attributes):
    if virtual is not None:
        attributes[VIRTUAL_ATTR] = virtual
    return Span(trace_id=trace_id, span_id=span_id, parent_id=parent_id,
                name=name, kind=kind, service=service, ordinal=ordinal,
                start=start, end=end, wait=wait, status=status,
                attributes=attributes)


def by_name(analysis):
    return {a.span.name: a for a in analysis.attributions}


def attributed_total(analysis):
    return math.fsum(a.total_seconds for a in analysis.attributions)


class TestSerialChain:
    def forest(self):
        return [
            mkspan("r", "", "query", kind=QUERY, start=0.0, end=10.0),
            mkspan("a", "r", "asr", service="ASR", start=0.0, end=4.0),
            mkspan("s", "a", "asr.decode", kind=SECTION, start=1.0, end=3.0),
            mkspan("q", "r", "qa", service="QA", start=4.0, end=10.0, wait=1.0),
        ]

    def test_exact_decomposition(self):
        (analysis,) = analyze_forest(self.forest())
        attrs = by_name(analysis)
        # Children cover the whole root window, so the root keeps nothing.
        assert attrs["query"].self_seconds == pytest.approx(0.0)
        # asr owns [0,4] minus its section's [1,3].
        assert attrs["asr"].self_seconds == pytest.approx(2.0)
        assert attrs["asr.decode"].self_seconds == pytest.approx(2.0)
        # qa owns [4,10]; one of those seconds was measured queueing.
        assert attrs["qa"].wait_seconds == pytest.approx(1.0)
        assert attrs["qa"].self_seconds == pytest.approx(5.0)
        assert attributed_total(analysis) == pytest.approx(
            analysis.total_seconds, abs=1e-12
        )
        assert analysis.total_seconds == pytest.approx(10.0)

    def test_critical_path_follows_latest_end(self):
        # qa ends last; asr ended when qa started, so it ran before it on
        # the path, with its own section.
        (analysis,) = analyze_forest(self.forest())
        assert [s.name for s in analysis.critical_path] == [
            "query", "asr", "asr.decode", "qa",
        ]

    def test_stage_inherited_from_service_ancestor(self):
        (analysis,) = analyze_forest(self.forest())
        attrs = by_name(analysis)
        assert attrs["asr.decode"].stage == "ASR"
        assert attrs["query"].stage == "query"


class TestOverlappingChildren:
    def test_overlap_goes_to_dominating_child(self):
        # "Diamond": two stage spans share the [4,6] window; the one that
        # ends last dominates the shared segment.
        spans = [
            mkspan("r", "", "query", kind=QUERY, start=0.0, end=10.0),
            mkspan("x", "r", "asr", service="ASR", start=0.0, end=6.0),
            mkspan("y", "r", "qa", service="QA", start=4.0, end=10.0),
        ]
        (analysis,) = analyze_forest(spans)
        attrs = by_name(analysis)
        assert attrs["asr"].self_seconds == pytest.approx(4.0)
        assert attrs["qa"].self_seconds == pytest.approx(6.0)
        assert attrs["query"].self_seconds == pytest.approx(0.0)
        assert attributed_total(analysis) == pytest.approx(10.0, abs=1e-12)
        assert [s.name for s in analysis.critical_path] == ["query", "qa"]

    def test_identical_windows_break_ties_on_virtual(self):
        spans = [
            mkspan("r", "", "query", kind=QUERY, start=0.0, end=8.0),
            mkspan("x", "r", "asr", service="ASR", start=0.0, end=8.0),
            mkspan("y", "r", "qa", service="QA", start=0.0, end=8.0,
                   virtual=1.0),
        ]
        (analysis,) = analyze_forest(spans)
        attrs = by_name(analysis)
        # qa dominates every shared segment; asr still gets an entry.
        assert attrs["qa"].self_seconds == pytest.approx(8.0)
        assert attrs["asr"].self_seconds == pytest.approx(0.0)
        assert [s.name for s in analysis.critical_path] == ["query", "qa"]
        assert attributed_total(analysis) == pytest.approx(
            analysis.total_seconds, abs=1e-12
        )


class TestSiblingChain:
    """Stages that ran back to back are all on the path, not just the last."""

    def forest(self):
        # A 400 ms query that waited 342 ms in the router queue.
        return [
            mkspan("r", "", "query", kind=QUERY, start=0.0, end=0.400),
            mkspan("w", "r", "router", kind=ROUTER, service="ROUTER",
                   start=0.0, end=0.342, wait=0.342),
            mkspan("a", "r", "asr", service="ASR", start=0.342, end=0.380),
            mkspan("q", "r", "qa", service="QA", start=0.380, end=0.400),
            mkspan("s", "q", "qa.aggregate", kind=SECTION, start=0.390, end=0.400),
        ]

    def test_router_asr_and_qa_are_all_on_the_path(self):
        (analysis,) = analyze_forest(self.forest())
        assert [s.name for s in analysis.critical_path] == [
            "query", "router", "asr", "qa", "qa.aggregate",
        ]
        assert all(a.on_critical_path for a in analysis.attributions)
        shares = {share.stage: share for share in tail_attribution([analysis]).tail}
        assert shares["ROUTER"].critical_hits == 1
        assert shares["ROUTER"].wait_seconds == pytest.approx(0.342)
        assert "query -> router [ROUTER] -> asr [ASR] -> qa [QA]" in (
            format_critical_path_report(self.forest(), quantile=0.99)
        )

    def test_an_overlapping_sibling_is_not_chained(self):
        # asr still runs when qa starts, so qa's chain skips it and links
        # to the router, the latest sibling that ended before qa started.
        spans = self.forest()
        spans[2] = mkspan("a", "r", "asr", service="ASR", start=0.342, end=0.385)
        (analysis,) = analyze_forest(spans)
        assert [s.name for s in analysis.critical_path] == [
            "query", "router", "qa", "qa.aggregate",
        ]


class TestDegradedTimingStripped:
    """A chaos replay export: zero wall clocks, virtual latency only."""

    def forest(self):
        return [
            mkspan("r", "", "query", kind=QUERY, virtual=3.0, degraded=True),
            mkspan("q", "r", "qa", service="QA", virtual=3.0),
            mkspan("a1", "q", "attempt", kind=ATTEMPT, status="error",
                   virtual=1.0),
            mkspan("a2", "q", "attempt", kind=ATTEMPT, virtual=2.0),
        ]

    def test_virtual_decomposes_exactly(self):
        (analysis,) = analyze_forest(self.forest())
        assert analysis.measured_seconds == 0.0
        assert analysis.total_seconds == pytest.approx(3.0)
        attrs = {a.span.span_id: a for a in analysis.attributions}
        # qa's virtual is fully covered by its attempts; the root's by qa.
        assert attrs["r"].virtual_seconds == pytest.approx(0.0)
        assert attrs["q"].virtual_seconds == pytest.approx(0.0)
        assert attrs["a1"].virtual_seconds == pytest.approx(1.0)
        assert attrs["a2"].virtual_seconds == pytest.approx(2.0)
        assert attributed_total(analysis) == pytest.approx(3.0, abs=1e-12)

    def test_path_follows_virtual_when_untimed(self):
        (analysis,) = analyze_forest(self.forest())
        assert [s.span_id for s in analysis.critical_path] == ["r", "q", "a2"]

    def test_attempts_charge_their_service_stage(self):
        (analysis,) = analyze_forest(self.forest())
        attrs = {a.span.span_id: a for a in analysis.attributions}
        assert attrs["a1"].stage == attrs["a2"].stage == "QA"


class TestMalformedForests:
    def test_empty_forest_raises(self):
        with pytest.raises(ObsError):
            analyze_forest([])

    def test_orphan_parent_raises(self):
        spans = [
            mkspan("r", "", "query", kind=QUERY),
            mkspan("a", "gone", "asr", service="ASR"),
        ]
        with pytest.raises(ObsError, match="missing parent"):
            analyze_forest(spans)

    def test_rootless_trace_raises(self):
        spans = [
            mkspan("a", "b", "asr", service="ASR"),
            mkspan("b", "a", "qa", service="QA"),
        ]
        with pytest.raises(ObsError, match="no root"):
            analyze_forest(spans)

    def test_tail_of_nothing_raises(self):
        with pytest.raises(ObsError):
            tail_attribution([])


class TestTailAttribution:
    def forest(self):
        spans = []
        for i, (total, stage) in enumerate(
            [(1.0, "ASR"), (1.0, "ASR"), (1.0, "ASR"), (10.0, "QA")]
        ):
            trace = f"t{i}"
            spans.append(mkspan(f"r{i}", "", "query", kind=QUERY,
                                trace_id=trace, ordinal=i, end=total))
            spans.append(mkspan(f"c{i}", f"r{i}", stage.lower(),
                                service=stage, trace_id=trace, ordinal=i,
                                end=total))
        return spans

    def test_nearest_rank(self):
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.99) == 4.0
        with pytest.raises(ObsError):
            nearest_rank([], 0.5)

    def test_tail_is_attributed_to_the_slow_stage(self):
        analyses = analyze_forest(self.forest())
        report = tail_attribution(analyses, quantile=0.99)
        assert report.n_traces == 4
        assert report.n_tail_traces == 1
        assert report.threshold_seconds == pytest.approx(10.0)
        assert report.overall[0].stage == "QA"
        tail_stages = {s.stage: s for s in report.tail}
        assert tail_stages["QA"].total_seconds == pytest.approx(10.0)
        assert "ASR" not in tail_stages
        assert tail_stages["QA"].critical_hits == 1

    @pytest.mark.parametrize("quantile", [0.0, -0.5, 1.5, 2.0])
    def test_quantile_outside_unit_interval_raises(self, quantile):
        analyses = analyze_forest(self.forest())
        with pytest.raises(ConfigurationError, match="tail quantile"):
            tail_attribution(analyses, quantile=quantile)

    def test_report_renders_the_slow_query(self):
        text = format_critical_path_report(self.forest(), quantile=0.99)
        assert "Tail attribution" in text
        assert "query #3" in text
        assert "qa [QA]" in text


class TestChaosIntegration:
    def analyses(self, workers):
        executor = traced_executor(resilient=True, chaos_seed=42)
        responses = executor.run_all(make_queries(6), workers=workers,
                                     on_error="degrade")
        return collect_spans(responses)

    def test_attribution_sums_to_trace_totals_on_real_forest(self):
        spans = self.analyses(1)
        for analysis in analyze_forest(spans):
            assert attributed_total(analysis) == pytest.approx(
                analysis.total_seconds, abs=1e-9
            )

    def test_report_byte_identical_across_backends(self):
        def report(workers):
            stripped = [
                span_from_dict(json.loads(line))
                for line in to_jsonl(self.analyses(workers),
                                     timing=False).splitlines()
            ]
            return format_critical_path_report(stripped)

        assert report(1) == report(2)


class TestRouterQueueAttribution:
    """Regression: router-queued time must not leak into service self time.

    Before the cluster layer, a query that sat in a dispatch queue either
    lost that window entirely or had it absorbed by whichever service ran
    first.  With a :class:`~repro.serving.executor.RouterTicket` the
    executor backdates the trace to ``enqueued_at`` and emits a dedicated
    ``router`` span whose whole window is wait, so the analyzer carves the
    queue out as its own ``ROUTER`` stage and the fsum decomposition stays
    exact.
    """

    WINDOW = 0.05  # seconds of simulated router queueing

    def run_with_ticket(self):
        import time as _time

        from repro.obs.trace import ROUTER
        from repro.serving import RouterTicket

        from tests.test_obs import make_query

        executor = traced_executor(trace_seed=0)
        ticket = RouterTicket(
            policy="power-of-two",
            replica=0,
            n_replicas=3,
            queue_depth=2,
            enqueued_at=_time.perf_counter() - self.WINDOW,
        )
        response = executor.run(make_query("what is this"),
                                router_ticket=ticket)
        return response, ROUTER

    def test_router_span_carries_the_whole_queue_window_as_wait(self):
        response, ROUTER = self.run_with_ticket()
        routers = [s for s in response.spans if s.kind == ROUTER]
        assert len(routers) == 1
        span = routers[0]
        assert span.service == "ROUTER"
        assert span.wait == pytest.approx(span.duration)
        assert span.wait >= self.WINDOW * 0.9
        assert span.attributes["policy"] == "power-of-two"
        assert span.attributes["queue_depth"] == 2

    def test_analyzer_carves_a_wait_dominated_router_stage(self):
        response, _ = self.run_with_ticket()
        (analysis,) = analyze_forest(response.spans)
        stages = {}
        for attribution in analysis.attributions:
            stages.setdefault(attribution.stage, []).append(attribution)
        assert "ROUTER" in stages
        router_total = math.fsum(
            a.total_seconds for a in stages["ROUTER"]
        )
        router_wait = math.fsum(a.wait_seconds for a in stages["ROUTER"])
        assert router_total >= self.WINDOW * 0.9
        assert router_wait == pytest.approx(router_total)
        # No other stage absorbed the queue window: everything that is not
        # the router stage fits in the root window minus the queue time.
        other_total = math.fsum(
            a.total_seconds
            for stage, attributions in stages.items()
            if stage != "ROUTER"
            for a in attributions
        )
        assert other_total <= analysis.measured_seconds - router_wait + 1e-6

    def test_fsum_decomposition_stays_exact_with_router_span(self):
        response, _ = self.run_with_ticket()
        (analysis,) = analyze_forest(response.spans)
        assert attributed_total(analysis) == pytest.approx(
            analysis.measured_seconds + analysis.virtual_seconds, abs=1e-9
        )

    def test_no_ticket_means_no_router_span(self):
        from repro.obs.trace import ROUTER

        from tests.test_obs import make_query

        executor = traced_executor(trace_seed=0)
        response = executor.run(make_query("what is this"))
        assert not [s for s in response.spans if s.kind == ROUTER]
