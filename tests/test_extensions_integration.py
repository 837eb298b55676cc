"""Integration tests for the newer features: persistence, parallel services,
ranker choice, and the response latency semantics."""

import threading

import numpy as np
import pytest

from repro.core import IPAQuery, SiriusPipeline
from repro.errors import ImageError
from repro.imm import ImageDatabase, SceneGenerator
from repro.serving import IMM, QA
from repro.websearch import Corpus, SearchEngine
from tests.conformance.stubs import StubImm, StubQa


class TestImageDatabasePersistence:
    def test_roundtrip_matches_identically(self, tmp_path):
        generator = SceneGenerator(seed=61)
        original = ImageDatabase.with_scenes(4, generator=generator)
        path = str(tmp_path / "scenes.npz")
        original.save(path)
        restored = ImageDatabase.load(path)
        assert restored.n_images == original.n_images
        assert restored.n_descriptors == original.n_descriptors
        for index in range(4):
            query = generator.query_for(index)
            assert restored.match(query).image_name == original.match(query).image_name

    def test_verified_match_after_load(self, tmp_path):
        generator = SceneGenerator(seed=62)
        database = ImageDatabase.with_scenes(3, generator=generator)
        path = str(tmp_path / "db.npz")
        database.save(path)
        restored = ImageDatabase.load(path)
        result = restored.match(generator.query_for(1), verify=True)
        assert result.image_name == "scene-1"
        assert result.inliers > 0

    def test_empty_database_cannot_save(self, tmp_path):
        with pytest.raises(ImageError):
            ImageDatabase().save(str(tmp_path / "empty.npz"))

    def test_loaded_database_can_grow(self, tmp_path):
        generator = SceneGenerator(seed=63)
        database = ImageDatabase.with_scenes(2, generator=generator)
        path = str(tmp_path / "db.npz")
        database.save(path)
        restored = ImageDatabase.load(path)
        restored.add(generator.scene(5))
        assert restored.n_images == 3


class TestParallelServices:
    def test_parallel_viq_same_answers(self, sirius_pipeline, input_set):
        parallel = SiriusPipeline(
            decoder=sirius_pipeline.decoder,
            classifier=sirius_pipeline.classifier,
            qa_engine=sirius_pipeline.qa_engine,
            image_database=sirius_pipeline.image_database,
            parallel_services=True,
        )
        for query in input_set.voice_image_queries[:3]:
            serial_response = sirius_pipeline.process(query)
            parallel_response = parallel.process(query)
            assert parallel_response.answer == serial_response.answer
            assert parallel_response.matched_image == serial_response.matched_image
            assert set(parallel_response.service_seconds) == {"ASR", "QA", "IMM"}

    @staticmethod
    def meeting_pipeline(sirius_pipeline, parallel_services, timeout):
        """The pipeline with QA and IMM swapped for stubs that wait for each other."""
        pipeline = SiriusPipeline(
            decoder=sirius_pipeline.decoder,
            classifier=sirius_pipeline.classifier,
            qa_engine=sirius_pipeline.qa_engine,
            image_database=sirius_pipeline.image_database,
            parallel_services=parallel_services,
        )
        barrier = threading.Barrier(2)

        def meet(stub):
            class Meeting(stub):
                def invoke(self, request):
                    barrier.wait(timeout)
                    return super().invoke(request)

            return Meeting()

        pipeline.serving.services[QA] = meet(StubQa)
        pipeline.serving.services[IMM] = meet(StubImm)
        return pipeline

    def test_parallel_wall_time_below_service_sum(self, sirius_pipeline, input_set):
        # "Did the two branches overlap" asked without a clock: each stub
        # returns only once the other is in flight too.
        query = input_set.voice_image_queries[0]
        response = self.meeting_pipeline(sirius_pipeline, True, timeout=30.0).process(query)
        assert response.answer.startswith("answer to ")
        assert response.matched_image == "stub-scene"
        assert set(response.service_seconds) == {"ASR", "QA", "IMM"}
        # The serial walk runs one branch to completion first: nobody to meet.
        with pytest.raises(threading.BrokenBarrierError):
            self.meeting_pipeline(sirius_pipeline, False, timeout=0.2).process(query)


class TestLatencySemantics:
    def test_wall_seconds_populated(self, sirius_pipeline, input_set):
        response = sirius_pipeline.process(input_set.voice_commands[0])
        assert response.wall_seconds > 0
        assert response.latency == response.wall_seconds

    def test_wall_at_least_service_sum_when_serial(self, sirius_pipeline, input_set):
        # By construction, with no tolerance: the wall bracket opens before
        # and closes after every stage bracket, stage seconds are clock
        # brackets inside it on the same clock, and a serial walk
        # runs its stages one after another.
        for query in (input_set.voice_queries[0], input_set.voice_image_queries[0]):
            response = sirius_pipeline.process(query)
            assert len(response.service_seconds) >= 2
            for seconds in response.service_seconds.values():
                assert response.wall_seconds >= seconds
            assert response.wall_seconds >= sum(response.service_seconds.values())


class TestRankerChoice:
    def test_invalid_ranker_rejected(self):
        with pytest.raises(ValueError):
            SearchEngine(Corpus(), ranker="pagerank")

    def test_tfidf_engine_retrieves(self):
        engine = SearchEngine(Corpus(), ranker="tfidf")
        results = engine.search("capital of italy")
        assert results
        assert "Italy" in results[0].document.title

    def test_distractor_corpus_counts(self):
        corpus = Corpus(documents_per_fact=1, n_noise_docs=0, distractors_per_fact=2)
        from repro.websearch.documents import FACTS

        assert len(corpus) == 3 * len(FACTS)
        # Distractor docs never carry answers.
        with_answers = sum(
            1 for d in corpus if corpus.answer_for_doc(d.doc_id) is not None
        )
        assert with_answers == len(FACTS)
