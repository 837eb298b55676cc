"""Tests for the serving layer: backends, query plans, executor, and the
cross-backend equivalence property on the full 42-query input set."""

import pytest

from repro.core import QueryType, SiriusPipeline
from repro.errors import ConfigurationError
from repro.obs.critical_path import section_seconds
from repro.serving import (
    ExecutionBackend,
    PlanExecutor,
    PlanStage,
    QueryPlan,
    ServiceRequest,
    available_backends,
    compile_plan,
    full_plan,
    get_backend,
    register_backend,
)
from repro.serving.backends import _REGISTRY
from repro.serving.executor import run_handed_off
from repro.serving.identity import replay_divergence


def _double(value):
    return value * 2


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        assert {"serial", "thread", "process"} <= set(available_backends())

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


class TestQueryPlans:
    def test_compiled_services_match_table1(self):
        for query_type in QueryType:
            plan = compile_plan(query_type)
            expected = tuple(s.lower() for s in query_type.services)
            recorded = tuple(
                stage.service for stage in plan.order() if stage.record
            )
            assert set(recorded) == set(expected)

    def test_viq_branches_share_a_level(self):
        levels = compile_plan(QueryType.VOICE_IMAGE_QUERY).levels()
        names = [[stage.name for stage in level] for level in levels]
        assert names == [["asr"], ["classify"], ["imm", "qa"]]

    def test_full_plan_guards(self):
        guards = {stage.name: stage.when for stage in full_plan().stages}
        assert guards["imm"] == "has_image"
        assert guards["qa"] == "needs_answer"
        assert guards["asr"] == ""

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryPlan(
                name="dup",
                stages=(
                    PlanStage(name="asr", service="asr"),
                    PlanStage(name="asr", service="qa"),
                ),
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryPlan(
                name="bad-dep",
                stages=(PlanStage(name="qa", service="qa", after=("asr",)),),
            )

    def test_cycle_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryPlan(
                name="cycle",
                stages=(
                    PlanStage(name="a", service="asr", after=("b",)),
                    PlanStage(name="b", service="qa", after=("a",)),
                ),
            )

    def test_unknown_guard_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryPlan(
                name="bad-guard",
                stages=(PlanStage(name="asr", service="asr", when="full-moon"),),
            )


class TestExecutor:
    def test_missing_service_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanExecutor({}, plan=full_plan())

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

    def test_static_plan_matches_dynamic_run(self, sirius_pipeline, input_set):
        query = input_set.voice_queries[1]
        static = PlanExecutor(
            sirius_pipeline.serving.services,
            plan=compile_plan(QueryType.VOICE_QUERY),
        ).run(query)
        dynamic = sirius_pipeline.process(query)
        assert static.transcript == dynamic.transcript
        assert static.answer == dynamic.answer
        assert static.query_type == dynamic.query_type

    def test_service_call_reports_stats(self, sirius_pipeline, input_set):
        service = sirius_pipeline.serving.services["qa"]
        outcome = run_handed_off(
            service, ServiceRequest(payload="what is the capital of italy"), True
        )
        assert outcome.error is None
        assert outcome.seconds > 0
        assert outcome.payload.answer_text


class TestServingEquivalence:
    """Satellite property: every backend produces results identical to the
    sequential pipeline on the full 42-query input set."""

    @pytest.fixture(scope="class")
    def reference(self, sirius_pipeline, input_set):
        return sirius_pipeline.process_all(input_set.all_queries)

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

    def test_parallel_branches_equivalent(self, sirius_pipeline, input_set):
        for query in input_set.voice_image_queries[:2]:
            serial = sirius_pipeline.process(query)
            overlapped = sirius_pipeline.serving.run(query, parallel_branches=True)
            assert overlapped.answer == serial.answer
            assert overlapped.matched_image == serial.matched_image
            assert set(overlapped.service_seconds) == {"ASR", "QA", "IMM"}

    def test_parallel_branches_same_sections_and_forest(
        self, sirius_pipeline, input_set
    ):
        # Threaded branches run the same stage bracket as serial stages: the
        # qa/imm sections (Fig 9's service-exclusive rows) and the whole
        # timing-stripped span forest come out the same either way.
        executor = sirius_pipeline.serving
        query = input_set.voice_image_queries[0]
        executor.trace_seed = 11
        try:
            serial = executor.run(query)
            overlapped = executor.run(query, parallel_branches=True)
        finally:
            executor.trace_seed = None
        sections = set(section_seconds(overlapped.spans))
        assert sections == set(section_seconds(serial.spans))
        assert {"qa", "imm"} <= sections
        assert replay_divergence([overlapped], [serial]) == (None, None)
