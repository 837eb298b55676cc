"""Work counters: the record_work channel and the per-kernel aggregates."""

import threading

import pytest

from repro.obs.context import current_tracer, use_tracer
from repro.obs.counters import (
    WorkCounters,
    aggregate_counters,
    counters_of,
    format_count,
    kernel_counters,
    record_work,
)
from repro.obs.trace import KERNEL, Tracer
from repro.suite import all_kernels


class TestAmbientTracer:
    def test_a_fresh_thread_sees_none(self):
        seen = []
        with use_tracer(Tracer(seed=1)):
            thread = threading.Thread(target=lambda: seen.append(current_tracer()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_nested_blocks_restore_the_previous_tracer_on_each_thread(self):
        barrier = threading.Barrier(2)
        failures = []

        def nest(outer, inner):
            try:
                barrier.wait()
                assert current_tracer() is None
                with use_tracer(outer):
                    barrier.wait()  # both threads inside their outer block
                    with use_tracer(inner):
                        barrier.wait()
                        assert current_tracer() is inner
                    assert current_tracer() is outer
                    with use_tracer(None):
                        assert current_tracer() is None
                    assert current_tracer() is outer
                assert current_tracer() is None
            except AssertionError as error:  # pragma: no cover - reported below
                failures.append(error)
                barrier.abort()

        pairs = [(Tracer(seed=slot), Tracer(seed=10 + slot)) for slot in range(2)]
        threads = [threading.Thread(target=nest, args=pair) for pair in pairs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures
        assert current_tracer() is None


class TestRecordWork:
    def test_noop_without_tracer(self):
        # Must not raise, must not require any ambient state.
        record_work(flops=10, mem_bytes=20, items=1)

    def test_accumulates_on_innermost_span(self):
        tracer = Tracer(seed=3)
        with use_tracer(tracer):
            with tracer.trace(0):
                with tracer.span("work"):
                    record_work(flops=10, mem_bytes=40, items=2)
                    record_work(flops=5, mem_bytes=8)
        span = next(s for s in tracer.spans if s.name == "work")
        assert span.attributes["flops"] == 15
        assert span.attributes["bytes"] == 48
        assert span.attributes["items"] == 2
        assert span.attributes["invocations"] == 2
        root = next(s for s in tracer.spans if not s.parent_id)
        assert "flops" not in root.attributes

    def test_counts_are_floored_to_ints(self):
        tracer = Tracer(seed=3)
        with use_tracer(tracer):
            with tracer.trace(0):
                with tracer.span("work"):
                    record_work(flops=10.9, mem_bytes=7.2)
        span = next(s for s in tracer.spans if s.name == "work")
        assert span.attributes["flops"] == 10
        assert span.attributes["bytes"] == 7
        assert isinstance(span.attributes["flops"], int)


class TestWorkCounters:
    def test_addition_and_intensity(self):
        a = WorkCounters(flops=10, bytes=5, items=1, invocations=1)
        b = WorkCounters(flops=20, bytes=5, items=2, invocations=3)
        total = a + b
        assert total == WorkCounters(flops=30, bytes=10, items=3, invocations=4)
        assert total.intensity == pytest.approx(3.0)
        assert WorkCounters().intensity == 0.0

    def test_counters_of(self):
        assert counters_of({"flops": 8, "bytes": 2}) == WorkCounters(
            flops=8, bytes=2
        )

    def test_format_count(self):
        assert format_count(0) == "0"
        assert format_count(999) == "999"
        assert format_count(1500) == "1.50K"
        assert format_count(2_500_000) == "2.50M"


class TestSuiteKernelSpans:
    @pytest.fixture(scope="class")
    def spans(self):
        tracer = Tracer(seed=0)
        with use_tracer(tracer):
            for ordinal, kernel in enumerate(all_kernels()):
                inputs = kernel.prepare(0.1)
                with tracer.trace(ordinal, name=f"suite:{kernel.name}"):
                    kernel.execute(inputs=inputs)
        return tracer.spans

    def test_every_kernel_emits_a_counter_carrying_span(self, spans):
        grouped = kernel_counters(spans)
        assert set(grouped) == {"gmm", "dnn", "stemmer", "regex", "crf",
                                "fe", "fd"}
        for name, counters in grouped.items():
            assert counters.flops > 0, name
            assert counters.bytes > 0, name
            assert counters.items > 0, name
            assert counters.invocations > 0, name
            assert counters.intensity > 0, name

    def test_kernel_spans_carry_kind_and_attribute(self, spans):
        kernel_spans = [s for s in spans if s.kind == KERNEL]
        assert len(kernel_spans) == 7
        for span in kernel_spans:
            assert span.name == f"kernel:{span.attributes['kernel']}"
            assert span.service

    def test_counters_are_deterministic_across_runs(self, spans):
        tracer = Tracer(seed=0)
        with use_tracer(tracer):
            for ordinal, kernel in enumerate(all_kernels()):
                inputs = kernel.prepare(0.1)
                with tracer.trace(ordinal, name=f"suite:{kernel.name}"):
                    kernel.execute(inputs=inputs)
        first = {k: c.as_dict() for k, c in kernel_counters(spans).items()}
        again = {k: c.as_dict()
                 for k, c in kernel_counters(tracer.spans).items()}
        assert first == again

    def test_aggregate_and_grouping(self, spans):
        total = aggregate_counters(spans)
        by_kernel = kernel_counters(spans)
        assert total.flops == sum(c.flops for c in by_kernel.values())

    def test_untraced_execute_emits_no_spans(self):
        kernel = all_kernels()[0]
        inputs = kernel.prepare(0.1)
        outcome = kernel.execute(inputs=inputs)
        assert outcome.items > 0
