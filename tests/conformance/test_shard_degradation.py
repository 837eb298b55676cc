"""Shard-failure degradation contract against the real Sirius pipeline.

The contract (docs/CLUSTER.md): a failed shard is *partial* — the gather
merges what succeeded, annotates the span, and the answer is still served
without setting the degraded flag.  Only when every shard of a service
fails does the service error surface, and then the executor's usual
degradation rules apply (QA -> fallback answer, IMM -> VIQ served as VQ).

The edge cases ride along: empty shards (more shards than images),
single-shard fleets (must match the single-node pipeline byte-for-byte),
and duplicate-tolerant deterministic merges.
"""

import random

import pytest

from repro.core import QueryType
from repro.imm.database import MatchResult
from repro.qa.scoring import ScoredAnswer
from repro.serving.cluster import (
    build_cluster,
    merge_match_candidates,
    merge_ranked_answers,
    shard_image_database,
    shard_qa_engines,
)
from repro.serving.faults import ERROR, FaultPlan, FaultRule


def shard_fault_plan(*shard_keys, seed=0):
    """A plan that hard-fails exactly the named shards (e.g. ``qa.shard0``)."""
    return FaultPlan(
        seed=seed,
        rules={key: (FaultRule(kind=ERROR),) for key in shard_keys},
    )


def first_query(input_set, query_type):
    if query_type is QueryType.VOICE_IMAGE_QUERY:
        return input_set.voice_image_queries[0]
    return input_set.voice_queries[0]


def qa_annotations(response):
    spans = [s for s in response.spans if s.attributes.get("shard.fanout")]
    assert spans, "sharded scatter must annotate fan-out on its span"
    return spans[0].attributes


class TestPartialShardFailure:
    def test_one_qa_shard_down_still_serves(self, sirius_pipeline, input_set):
        cluster = build_cluster(
            sirius_pipeline,
            n_replicas=1,
            n_shards=2,
            fault_plan=shard_fault_plan("qa.shard0"),
            trace_seed=0,
        )
        query = first_query(input_set, QueryType.VOICE_QUERY)
        response = cluster.run_all([query])[0]
        assert not response.failed
        assert "QA" not in response.failures
        attrs = qa_annotations(response)
        assert attrs["shard.fanout"] == 2
        assert attrs["shard.failed"] == 1
        assert "INJECTED" in attrs["shard.codes"]

    def test_one_imm_shard_down_still_matches(self, sirius_pipeline, input_set):
        cluster = build_cluster(
            sirius_pipeline,
            n_replicas=1,
            n_shards=2,
            fault_plan=shard_fault_plan("imm.shard1"),
            trace_seed=0,
        )
        query = first_query(input_set, QueryType.VOICE_IMAGE_QUERY)
        response = cluster.run_all([query])[0]
        assert not response.failed
        assert "IMM" not in response.failures
        assert response.query_type is QueryType.VOICE_IMAGE_QUERY

    def test_empty_shard_absorbed_as_partial(self, sirius_pipeline, input_set):
        # More shards than registered scenes: at least one IMM shard is
        # empty and fails its scatter leg; the query is still served from
        # the populated shards.
        n_shards = sirius_pipeline.image_database.n_images + 1
        cluster = build_cluster(
            sirius_pipeline, n_replicas=1, n_shards=n_shards, trace_seed=0
        )
        query = first_query(input_set, QueryType.VOICE_IMAGE_QUERY)
        response = cluster.run_all([query])[0]
        assert not response.failed
        assert response.query_type is QueryType.VOICE_IMAGE_QUERY
        assert response.matched_image


class TestAllShardsFailed:
    def test_all_qa_shards_down_degrades_to_fallback(
        self, sirius_pipeline, input_set
    ):
        cluster = build_cluster(
            sirius_pipeline,
            n_replicas=1,
            n_shards=2,
            fault_plan=shard_fault_plan(
                "qa.shard0", "qa.shard1"
            ),
            trace_seed=0,
        )
        query = first_query(input_set, QueryType.VOICE_QUERY)
        response = cluster.run_all([query])[0]
        assert response.degraded and not response.failed
        assert "QA" in response.failures
        assert response.answer == ""

    def test_all_imm_shards_down_serves_viq_as_vq(
        self, sirius_pipeline, input_set
    ):
        cluster = build_cluster(
            sirius_pipeline,
            n_replicas=1,
            n_shards=2,
            fault_plan=shard_fault_plan(
                "imm.shard0", "imm.shard1"
            ),
            trace_seed=0,
        )
        query = first_query(input_set, QueryType.VOICE_IMAGE_QUERY)
        response = cluster.run_all([query])[0]
        assert response.degraded and not response.failed
        assert "IMM" in response.failures
        assert response.query_type is QueryType.VOICE_QUERY
        assert response.matched_image == ""


class TestSingleShardEquivalence:
    def test_single_shard_fleet_matches_single_node(
        self, sirius_pipeline, input_set
    ):
        cluster = build_cluster(sirius_pipeline, n_replicas=1, n_shards=1)
        queries = input_set.all_queries[:4]
        clustered = cluster.run_all(queries)
        single = [sirius_pipeline.process(query) for query in queries]
        for ours, theirs in zip(clustered, single):
            assert ours.transcript == theirs.transcript
            assert ours.answer == theirs.answer
            assert ours.matched_image == theirs.matched_image
            assert ours.query_type is theirs.query_type


class TestShardBuilders:
    def test_image_shards_partition_the_database(self, sirius_pipeline):
        database = sirius_pipeline.image_database
        shards = shard_image_database(database, 3)
        names = [name for shard in shards for name in shard._names]
        assert sorted(names) == sorted(database._names)
        assert sum(shard.n_images for shard in shards) == database.n_images

    def test_qa_shards_partition_the_corpus(self, sirius_pipeline):
        engine = sirius_pipeline.qa_engine
        shards = shard_qa_engines(engine, 3)
        total = sum(len(list(s.search_engine.corpus)) for s in shards)
        assert total == len(list(engine.search_engine.corpus))
        # The tagger is a shared read-only model, not copied per shard.
        assert all(s.tagger is engine.tagger for s in shards)


class TestDeterministicMerges:
    def test_ranked_answer_merge_is_shard_order_free(self):
        lists = [
            [ScoredAnswer("alpha", 0.9, 3), ScoredAnswer("beta", 0.5, 1)],
            [ScoredAnswer("alpha", 0.7, 9), ScoredAnswer("gamma", 0.5, 2)],
            [],
        ]
        merged = merge_ranked_answers(lists)
        rng = random.Random("shuffle:0")
        for _ in range(5):
            shuffled = list(lists)
            rng.shuffle(shuffled)
            assert merge_ranked_answers(shuffled) == merged
        # Duplicates collapse to the best (score, support) witness.
        assert [a.text for a in merged] == ["alpha", "beta", "gamma"]
        assert merged[0].score == 0.9 and merged[0].support == 3
        # Equal scores break ties by text, deterministically.
        assert [a.text for a in merged[1:]] == ["beta", "gamma"]

    def test_match_candidate_merge_is_shard_order_free(self):
        candidates = [
            MatchResult("scene-b", votes=4, total_matches=9, n_query_keypoints=5),
            MatchResult("scene-a", votes=7, total_matches=9, n_query_keypoints=5),
            MatchResult("scene-a", votes=2, total_matches=9, n_query_keypoints=5),
            MatchResult("scene-c", votes=4, total_matches=9, n_query_keypoints=5),
        ]
        merged = merge_match_candidates(candidates)
        assert [m.image_name for m in merged] == ["scene-a", "scene-b", "scene-c"]
        assert merged[0].votes == 7  # duplicate keeps the max-vote witness
        rng = random.Random("shuffle:1")
        for _ in range(5):
            shuffled = list(candidates)
            rng.shuffle(shuffled)
            assert merge_match_candidates(shuffled) == merged
