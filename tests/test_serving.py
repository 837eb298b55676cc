"""Tests for the serving layer: backends, the executor's query walk, and the
cross-backend equivalence property on the full 42-query input set."""

import pytest

from repro.core import QueryType, SiriusPipeline
from repro.errors import ConfigurationError
from repro.serving import (
    ExecutionBackend,
    PlanExecutor,
    ServiceRequest,
    get_backend,
    register_backend,
)
from repro.serving.backends import _REGISTRY
from repro.serving.executor import run_stage


def _double(value):
    return value * 2


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        for name in ("serial", "thread", "process"):
            assert get_backend(name).name == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("quantum")

    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_map_matches_serial_reference(self, name):
        items = list(range(20))
        assert get_backend(name).map(_double, items, workers=3) == [
            _double(item) for item in items
        ]

    def test_process_backend_runs_closures(self):
        """Fork inheritance means the callable is never pickled."""
        offset = 17
        result = get_backend("process").map(
            lambda x: x + offset, [1, 2, 3, 4], workers=2
        )
        assert result == [18, 19, 20, 21]

    def test_invalid_worker_count_rejected(self, sirius_pipeline, input_set):
        with pytest.raises(ConfigurationError):
            get_backend("thread").map(_double, [1, 2], workers=0)
        # run_all dispatches every backend through map, serial included.
        with pytest.raises(ConfigurationError):
            sirius_pipeline.serving.run_all(
                input_set.voice_commands[:1], backend="serial", workers=0
            )

    def test_register_custom_backend(self):
        class ReversedSerial(ExecutionBackend):
            name = "test-reversed"

            def map(self, fn, items, workers=None):
                return [fn(item) for item in items][::-1]

        try:
            register_backend(ReversedSerial())
            assert get_backend("test-reversed").map(_double, [1, 2]) == [4, 2]
        finally:
            _REGISTRY.pop("test-reversed", None)

    def test_nameless_backend_rejected(self):
        class Nameless(ExecutionBackend):
            def map(self, fn, items, workers=None):
                return []

        with pytest.raises(ConfigurationError):
            register_backend(Nameless())


class TestExecutor:
    def test_missing_service_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanExecutor({})

    def test_pipeline_serving_is_cached(self, sirius_pipeline):
        assert sirius_pipeline.serving is sirius_pipeline.serving

    def test_pipeline_serving_rebuilds_on_component_swap(self, sirius_pipeline):
        from repro.imm import ImageDatabase, SceneGenerator

        executor = sirius_pipeline.serving
        original_db = sirius_pipeline.image_database
        try:
            sirius_pipeline.image_database = ImageDatabase.with_scenes(
                2, generator=SceneGenerator(seed=99)
            )
            assert sirius_pipeline.serving is not executor
        finally:
            sirius_pipeline.image_database = original_db

    def test_warmup_builds_ann_matcher(self, sirius_pipeline):
        executor = sirius_pipeline.serving
        executor.services["imm"].database._matcher = None
        executor.warmup()
        assert executor.services["imm"].database._matcher is not None

    def test_service_call_reports_stats(self, sirius_pipeline, input_set):
        service = sirius_pipeline.serving.services["qa"]
        request = ServiceRequest(payload="what is the capital of italy")
        outcome = run_stage(service, lambda: service.invoke(request), True)
        assert outcome.error is None
        assert outcome.seconds > 0
        assert outcome.payload.answer_text


class TestServingEquivalence:
    """Satellite property: every backend produces results identical to the
    sequential pipeline on the full 42-query input set."""

    @pytest.fixture(scope="class")
    def reference(self, sirius_pipeline, input_set):
        return sirius_pipeline.serving.run_all(input_set.all_queries)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_equivalence(
        self, backend, sirius_pipeline, input_set, reference
    ):
        responses = sirius_pipeline.serving.run_all(
            input_set.all_queries, backend=backend, workers=2
        )
        assert len(responses) == len(reference)
        for expected, got in zip(reference, responses):
            assert got.query_type == expected.query_type
            assert got.transcript == expected.transcript
            assert got.action == expected.action
            assert got.answer == expected.answer
            assert got.matched_image == expected.matched_image
            assert got.filter_hits == expected.filter_hits

    def test_walk_services_match_table1(self, input_set, reference):
        # Table 1: VC = ASR, VQ = ASR + QA, VIQ = ASR + QA + IMM; the walk
        # credits exactly those services (classification is glue).
        table1 = {
            QueryType.VOICE_COMMAND: {"asr"},
            QueryType.VOICE_QUERY: {"asr", "qa"},
            QueryType.VOICE_IMAGE_QUERY: {"asr", "qa", "imm"},
        }
        responses = iter(reference)
        for query_type in QueryType:
            expected = table1[query_type]
            for _ in input_set.by_type(query_type):
                response = next(responses)
                assert response.query_type is query_type
                assert {label.lower() for label in response.service_seconds} == expected
