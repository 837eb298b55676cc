"""Integration tests for the newer features: persistence, ranker choice,
and the response latency semantics."""

import pytest

from repro.errors import ImageError
from repro.imm import ImageDatabase, SceneGenerator
from repro.websearch import Corpus, SearchEngine


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
