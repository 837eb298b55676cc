"""Tests for :mod:`repro.serving.identity`, the one definition of run equality.

The locator is exercised on hand-made pairs (an outcome stream, a span
export, a JSON report), the streaming anchor on a stub executor with one
perturbed field, and the CLI surfaces that print the locator on a
forced divergence: ``serve-bench --chaos`` with a breaker that trips
early in one of its two runs, and plain and ``--replicas``
``serve-bench`` with a fan-out run that drifts from the sequential one.
"""

import dataclasses
import itertools
import re

import pytest

from repro.cli import main
from repro.core import QueryType, SiriusResponse
from repro.obs import Span, to_jsonl
from repro.serving import BreakerPolicy, PlanExecutor
from repro.serving.identity import (
    first_divergence,
    outcome_counts,
    outcome_fingerprint,
    single_chunk_equivalent,
    span_fingerprint,
)

from tests.conformance.stubs import make_query, stub_services


def _response(answer="a", failures=None, spans=()):
    failures = failures or {}
    return SiriusResponse(
        query_type=QueryType.VOICE_QUERY, transcript="t", answer=answer,
        degraded=bool(failures), failures=failures, spans=spans,
    )


def _span(ordinal, name, **attributes):
    return Span(trace_id=f"t{ordinal}", span_id=f"{ordinal}-{name}", parent_id="",
                name=name, ordinal=ordinal, attributes=attributes)


class TestFirstDivergence:
    def test_same_run_is_none(self):
        stream = outcome_fingerprint([_response(), _response("b")])
        assert first_divergence(stream, list(stream)) is None
        assert first_divergence("a\nb\n", "a\nb\n") is None

    def test_outcome_pair_names_ordinal_and_field(self):
        ours = [_response(), _response(failures={"IMM": "CIRCUIT_OPEN"})]
        theirs = [_response(), _response(failures={"IMM": "INJECTED"})]
        assert first_divergence(
            outcome_fingerprint(ours), outcome_fingerprint(theirs)
        ) == "ordinal 1 failures: IMM:CIRCUIT_OPEN vs IMM:INJECTED"
        assert first_divergence(
            outcome_fingerprint([_response("x")]), outcome_fingerprint([_response("y")])
        ) == "ordinal 0 answer: 'x' vs 'y'"

    def test_truncated_stream_is_a_divergence(self):
        stream = outcome_fingerprint([_response(), _response()])
        assert first_divergence(stream, stream[:1]).startswith("ordinal 1:")

    def test_span_export_pair_names_span_and_key(self):
        def export(state):
            return span_fingerprint([
                _response(spans=(_span(0, "asr", attempts=1),)),
                _response(spans=(_span(1, "imm", attempts=2, breaker=state),)),
            ])

        assert first_divergence(export("open"), export("closed")) == (
            "ordinal 1 span 'imm' attributes.breaker: 'open' vs 'closed'"
        )

    def test_one_line_export_is_still_a_span(self):
        ours, theirs = (to_jsonl([_span(4, "qa", hits=n)]) for n in (3, 5))
        assert first_divergence(ours, theirs) == (
            "ordinal 4 span 'qa' attributes.hits: 3 vs 5"
        )

    def test_json_report_names_the_path(self):
        ours = '{"queries": [{"uj": 5}, {"uj": 7}], "schema": "v1"}'
        theirs = '{"queries": [{"uj": 5}, {"uj": 8}], "schema": "v1"}'
        assert first_divergence(ours, theirs) == "queries[1].uj: 7 vs 8"

    def test_rendered_text_names_the_line(self):
        assert first_divergence("Fleet\np99  1.0\n", "Fleet\np99  1.5\n") == (
            "line 2 'p99  1.0' vs 'p99  1.5'"
        )


def test_outcome_counts_failed_is_not_also_degraded():
    stream = [
        _response(),
        _response(failures={"QA": "DEADLINE"}),
        _response(failures={"ASR": "INJECTED"}),
    ]
    assert outcome_counts(stream) == (1, 1, 1)


class _PerturbedReplay(PlanExecutor):
    """An executor whose ``precomputed`` replay changes one response field."""

    def __init__(self, services, field, value):
        super().__init__(services, trace_seed=0)
        self.field, self.value = field, value

    def run(self, query, precomputed=None, **kwargs):
        response = super().run(query, precomputed=precomputed, **kwargs)
        if precomputed:
            response = dataclasses.replace(response, **{self.field: self.value})
        return response


class TestSingleChunkEquivalent:
    def test_stub_executor_is_equivalent(self):
        executor = PlanExecutor(stub_services(), trace_seed=0)
        assert single_chunk_equivalent(executor, make_query("what is this"), 3)

    def test_one_perturbed_field_breaks_the_anchor(self):
        query = make_query("what is this", with_image=True)
        for field, value in (("answer", "perturbed"), ("action", "perturbed"),
                             ("failures", {"QA": "INJECTED"})):
            executor = _PerturbedReplay(stub_services(), field, value)
            assert not single_chunk_equivalent(executor, query, 0), field


class TestForcedDivergenceAtTheCli:
    def test_chaos_bench_names_ordinal_and_field(self, monkeypatch, capsys):
        """The second run's QA breaker trips three failures early."""
        import repro.serving as serving

        real = serving.default_policies
        thresholds = itertools.chain([4, 1], itertools.repeat(4))

        def early_tripping(seed=0):
            policies = real(seed=seed)
            policies["qa"] = dataclasses.replace(
                policies["qa"],
                breaker=BreakerPolicy(failure_threshold=next(thresholds)),
            )
            return policies

        monkeypatch.setattr(serving, "default_policies", early_tripping)
        assert main(["serve-bench", "--chaos", "42", "--queries", "8",
                     "--metrics"]) == 2
        output = capsys.readouterr().out
        assert re.search(r"^replay determinism: FAILED at ordinal \d+ \w+: ",
                         output, re.M)
        assert re.search(
            r"^span replay determinism: FAILED at ordinal \d+ span '[\w.]+' [\w.]+: ",
            output, re.M,
        )

    @pytest.mark.parametrize("drift, where", [
        ("answer", r"ordinal 1 answer: '\w+' vs 'drifted'"),
        ("length", r"ordinal 2: stream lengths differ \(3 vs 2 responses\)"),
    ], ids=["answer", "length"])
    def test_plain_serve_bench_names_ordinal(self, monkeypatch, capsys, drift, where):
        """The fan-out run drifts one answer, or drops its last response."""
        real = PlanExecutor.run_all

        def drifting(self, queries, **kwargs):
            responses = real(self, queries, **kwargs)
            if "workers" not in kwargs:  # the sequential reference run
                return responses
            if drift == "length":
                return responses[:-1]
            responses[1] = dataclasses.replace(responses[1], answer="drifted")
            return responses

        monkeypatch.setattr(PlanExecutor, "run_all", drifting)
        assert main(["serve-bench", "--queries", "3", "--workers", "1"]) == 2
        assert re.search(rf"^fan-out determinism: FAILED at {where}",
                         capsys.readouterr().out, re.M)

    def test_fleet_serve_bench_names_ordinal(self, monkeypatch, capsys):
        """``--replicas``: the fleet's fan-out run drifts one answer."""
        from repro.serving.cluster import Cluster

        real = Cluster.run_all

        def drifting(self, queries, **kwargs):
            responses = real(self, queries, **kwargs)
            if "workers" in kwargs:  # the fan-out run
                responses[1] = dataclasses.replace(responses[1], answer="drifted")
            return responses

        monkeypatch.setattr(Cluster, "run_all", drifting)
        assert main(["serve-bench", "--replicas", "2", "--queries", "3",
                     "--workers", "1"]) == 2
        assert re.search(r"^fan-out determinism: FAILED at ordinal 1 answer: "
                         r"'[^']+' vs 'drifted'", capsys.readouterr().out, re.M)
