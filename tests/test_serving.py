"""Tests for the serving layer: the two map functions, the executor's query
walk, and fan-out equivalence on the full 42-query input set."""

import pytest

from repro.core import QueryType, SiriusPipeline
from repro.errors import ConfigurationError
from repro.serving import (
    PlanExecutor,
    ServiceRequest,
    map_processes,
    map_threads,
)
from repro.serving.executor import run_stage


def _double(value):
    return value * 2


class TestBackendRegistry:
    """The two map functions; each runs in line at one worker."""

    @pytest.mark.parametrize("mapper, workers", [
        (map_processes, 1), (map_threads, 3), (map_processes, 3),
    ], ids=["serial", "thread", "process"])
    def test_map_matches_serial_reference(self, mapper, workers):
        items = list(range(20))
        assert mapper(_double, items, workers) == [_double(item) for item in items]

    def test_process_backend_runs_closures(self):
        """Fork inheritance means the callable is never pickled."""
        offset = 17
        result = map_processes(lambda x: x + offset, [1, 2, 3, 4], 2)
        assert result == [18, 19, 20, 21]

    def test_invalid_worker_count_rejected(self, sirius_pipeline, input_set):
        for mapper in (map_threads, map_processes):
            with pytest.raises(ConfigurationError):
                mapper(_double, [1, 2], 0)
        # run_all validates the count even for one query.
        with pytest.raises(ConfigurationError):
            sirius_pipeline.serving.run_all(
                input_set.voice_commands[:1], workers=0
            )


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
    """The process fan-out produces results identical to the sequential
    pipeline on the full 42-query input set."""

    @pytest.fixture(scope="class")
    def reference(self, sirius_pipeline, input_set):
        return sirius_pipeline.serving.run_all(input_set.all_queries)

    @pytest.mark.parametrize("backend", ["process"])
    def test_backend_equivalence(
        self, backend, sirius_pipeline, input_set, reference
    ):
        responses = sirius_pipeline.serving.run_all(
            input_set.all_queries, workers=2
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
