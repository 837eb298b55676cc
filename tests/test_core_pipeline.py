"""Tests for the query taxonomy, classifier, input set, and full pipeline."""

import statistics

import numpy as np
import pytest

from repro.asr.audio import Waveform
from repro.core import (
    ACTION,
    IPAQuery,
    InputSet,
    QUESTION,
    QueryClassifier,
    QueryType,
    SiriusPipeline,
    VOICE_COMMANDS,
    VOICE_IMAGE_QUERIES,
    VOICE_QUERIES,
    all_sentences,
    vocabulary,
)
from repro.errors import ConfigurationError, QueryError
from repro.obs.critical_path import section_seconds
from repro.serving import PlanExecutor


class TestQueryTaxonomy:
    def test_input_set_sizes_match_table1(self, input_set):
        assert len(input_set.voice_commands) == 16
        assert len(input_set.voice_queries) == 16
        assert len(input_set.voice_image_queries) == 10
        assert len(input_set) == 42

    def test_services_per_type(self):
        assert QueryType.VOICE_COMMAND.services == ("ASR",)
        assert QueryType.VOICE_QUERY.services == ("ASR", "QA")
        assert QueryType.VOICE_IMAGE_QUERY.services == ("ASR", "QA", "IMM")

    def test_viq_queries_have_images(self, input_set):
        assert all(q.image is not None for q in input_set.voice_image_queries)
        assert all(q.image is None for q in input_set.voice_commands)

    def test_empty_audio_rejected(self):
        with pytest.raises(QueryError):
            IPAQuery(audio=Waveform(np.zeros(0)))

    def test_vocabulary_covers_sentences(self):
        words = set(vocabulary())
        for sentence in all_sentences():
            assert set(sentence.split()) <= words

    def test_by_type_partitions(self, input_set):
        total = sum(
            len(input_set.by_type(t)) for t in QueryType
        )
        assert total == len(input_set)

    def test_input_set_deterministic(self):
        a = InputSet.build(synth_seed=7)
        b = InputSet.build(synth_seed=7)
        assert np.array_equal(
            a.voice_commands[0].audio.samples, b.voice_commands[0].audio.samples
        )


class TestQueryClassifier:
    @pytest.mark.parametrize("text", VOICE_COMMANDS)
    def test_commands_classified_as_actions(self, text):
        assert QueryClassifier().classify(text).label == ACTION

    @pytest.mark.parametrize("text", [q for q, _ in VOICE_QUERIES])
    def test_queries_classified_as_questions(self, text):
        assert QueryClassifier().classify(text).label == QUESTION

    def test_empty_defaults_to_question(self):
        assert QueryClassifier().classify("").label == QUESTION

    def test_question_wins_over_action_verb(self):
        # "what" question containing an action verb is still a question.
        assert QueryClassifier().classify("what does set my alarm do").label == QUESTION

    def test_evidence_recorded(self):
        verdict = QueryClassifier().classify("play the song")
        assert verdict.is_action
        assert verdict.matched_pattern


class TestSiriusPipeline:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            SiriusPipeline.build(asr_backend="tpu")

    def test_voice_command_path(self, sirius_pipeline, input_set):
        response = sirius_pipeline.process(input_set.voice_commands[0])
        assert response.query_type == QueryType.VOICE_COMMAND
        assert response.action == response.transcript
        assert response.answer == ""
        assert "ASR" in response.service_seconds
        assert "QA" not in response.service_seconds

    def test_voice_query_path(self, sirius_pipeline, input_set):
        query = input_set.voice_queries[1]  # capital of italy
        response = sirius_pipeline.process(query)
        assert response.query_type == QueryType.VOICE_QUERY
        assert response.transcript == query.text
        assert query.expected_answer in response.answer.lower()
        assert set(response.service_seconds) == {"ASR", "QA"}

    def test_voice_image_query_path(self, sirius_pipeline, input_set):
        query = input_set.voice_image_queries[1]
        response = sirius_pipeline.process(query)
        assert response.query_type == QueryType.VOICE_IMAGE_QUERY
        assert response.matched_image == query.expected_image
        assert set(response.service_seconds) == {"ASR", "QA", "IMM"}

    def test_full_input_set_accuracy(self, sirius_pipeline, input_set):
        """The headline end-to-end check: the whole taxonomy works."""
        correct = 0
        for query in input_set.all_queries:
            response = sirius_pipeline.process(query)
            good = (
                response.transcript == query.text
                and response.query_type == query.expected_type
                and (not query.expected_answer or query.expected_answer in response.answer.lower())
                and (not query.expected_image or response.matched_image == query.expected_image)
            )
            correct += good
        assert correct >= 40  # tolerate a couple of borderline misses

    def test_profile_sections_present(self, sirius_pipeline, input_set):
        executor = PlanExecutor(sirius_pipeline.serving.services, trace_seed=0)
        response = executor.run(input_set.voice_queries[0])
        sections = set(section_seconds(response.spans))
        assert {"asr.features", "asr.scoring", "asr.search"} <= sections
        assert {"qa.stemmer", "qa.regex", "qa.crf"} <= sections

    def test_latency_ordering_vc_fastest(self, sirius_pipeline, input_set):
        def warm_median(query, runs=5):
            sirius_pipeline.process(query)  # first call pays the cold caches
            return statistics.median(
                sirius_pipeline.process(query).latency for _ in range(runs)
            )

        vc = warm_median(input_set.voice_commands[0])
        viq = warm_median(input_set.voice_image_queries[0])
        assert vc < viq

    def test_filter_hits_reported(self, sirius_pipeline, input_set):
        response = sirius_pipeline.process(input_set.voice_queries[1])
        assert response.filter_hits > 0

    def test_summary_format(self, sirius_pipeline, input_set):
        summary = sirius_pipeline.process(input_set.voice_commands[1]).summary()
        assert "[VC]" in summary and "ms" in summary

    def test_process_all(self, sirius_pipeline, input_set):
        responses = sirius_pipeline.process_all(input_set.voice_commands[:3])
        assert len(responses) == 3
