"""Tests for component sections: ambient ``section`` spans and their projection."""

import threading

import pytest

from repro.analysis import ServiceBreakdown
from repro.errors import QueryError
from repro.obs.context import section, use_tracer
from repro.obs.critical_path import section_seconds
from repro.obs.trace import SECTION, Tracer


class FakeClock:
    """Deterministic clock advancing only when told."""

    def __init__(self):
        self.now = 0.0
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now

    def advance(self, seconds):
        self.now += seconds


def traced(clock, body, ordinal=0, tracer=None):
    """Run ``body`` inside one root span on a fake-clocked tracer."""
    tracer = tracer if tracer is not None else Tracer(clock=clock)
    with use_tracer(tracer), tracer.trace(ordinal):
        body()
    return tracer


class TestProfiler:
    def test_single_section(self):
        clock = FakeClock()

        def body():
            with section("work"):
                clock.advance(2.0)

        spans = traced(clock, body).finish()
        assert section_seconds(spans) == {"work": pytest.approx(2.0)}

    def test_nested_sections_are_exclusive(self):
        clock = FakeClock()

        def body():
            with section("outer"):
                clock.advance(1.0)
                with section("inner"):
                    clock.advance(3.0)
                clock.advance(0.5)

        seconds = section_seconds(traced(clock, body).finish())
        assert seconds["inner"] == pytest.approx(3.0)
        assert seconds["outer"] == pytest.approx(1.5)
        assert sum(seconds.values()) == pytest.approx(4.5)

    def test_sequential_sections_accumulate(self):
        clock = FakeClock()

        def body():
            for _ in range(3):
                with section("step"):
                    clock.advance(1.0)

        spans = traced(clock, body).finish()
        assert [span.name for span in spans if span.kind == SECTION] == ["step"] * 3
        assert section_seconds(spans) == {"step": pytest.approx(3.0)}

    def test_exception_still_records(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def body():
            with section("failing"):
                clock.advance(1.0)
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            traced(clock, body, tracer=tracer)
        assert section_seconds(tracer.finish()) == {"failing": pytest.approx(1.0)}

    def test_library_error_leaves_section_ok(self):
        # The section closes unmarked, as the accumulator it replaced
        # recorded a dying stage's time; the error belongs to the span the
        # stage bracket owns (here the root).
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def body():
            with section("asr"):
                clock.advance(1.0)
                raise QueryError("dead")

        with pytest.raises(QueryError):
            traced(clock, body, tracer=tracer)
        spans = {span.name: span for span in tracer.finish()}
        assert (spans["asr"].status, spans["asr"].error_code) == ("ok", "")
        assert (spans["query"].status, spans["query"].error_code) == ("error", "QUERY")

    def test_null_profiler_records_nothing(self):
        # Untraced, a section is free: no span, no clock read — with no
        # ambient tracer, or with one that has no open span.
        with section("ignored"):
            pass
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with use_tracer(tracer), section("ignored"):
            pass
        assert tracer.finish() == ()
        assert clock.reads == 0

    def test_branch_thread_sections_nest_under_own_tracer(self):
        # The ambient tracer is per thread: a branch thread sees none until
        # it resumes the query's trace, and then its sections nest under the
        # parent it resumed, never in the opening thread's open-span stack.
        tracer = Tracer()
        branch_spans = []

        def branch(context):
            with section("no-tracer"):
                pass
            resumed = Tracer.resume(context)
            with use_tracer(resumed), section("other-thread"):
                pass
            branch_spans.extend(resumed.finish())

        with use_tracer(tracer), tracer.trace(0) as root:
            with section("main-thread"):
                worker = threading.Thread(target=branch, args=(tracer.context(),))
                worker.start()
                worker.join()
        tracer.adopt(branch_spans)
        spans = {span.name: span for span in tracer.finish()}
        assert set(spans) == {"query", "main-thread", "other-thread"}
        assert spans["main-thread"].parent_id == root.span_id
        assert spans["other-thread"].parent_id == spans["main-thread"].span_id


class TestProfile:
    def test_breakdown_fractions(self):
        breakdown = ServiceBreakdown("QA")
        breakdown.seconds.update({"a": 3.0, "b": 1.0})
        breakdown = breakdown.fractions()
        assert breakdown["a"] == pytest.approx(0.75)
        assert breakdown["b"] == pytest.approx(0.25)
        assert list(breakdown) == ["a", "b"]  # descending

    def test_empty_breakdown(self):
        assert ServiceBreakdown("QA").fractions() == {}
        assert ServiceBreakdown("QA").fraction("missing") == 0.0

    def test_merge(self):
        # Pooling is one projection over the pooled forest: per-name sums
        # across traces.
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def first():
            with section("a"):
                clock.advance(1.0)

        def second():
            with section("a"):
                clock.advance(2.0)
            with section("b"):
                clock.advance(1.0)

        traced(clock, first, ordinal=0, tracer=tracer)
        traced(clock, second, ordinal=1, tracer=tracer)
        assert section_seconds(tracer.finish()) == {
            "a": pytest.approx(3.0), "b": pytest.approx(1.0),
        }
