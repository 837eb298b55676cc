"""Concurrency stress: the thread backend versus a flapping faulty service.

Many queries fan out over thread workers while QA flaps (hard-failing two
of every five ordinals through all retries).  The suite asserts the
invariants that matter under concurrency:

- the run completes (no deadlock) and returns one response per query, in
  input order;
- outcomes are exactly the deterministic flap prediction — degraded iff
  the ordinal falls in the flap window — despite arbitrary interleaving;
- no :class:`~repro.serving.resilience.CallRecord` is dropped: every
  query's QA call is logged exactly once, successes line up one-to-one
  with recorded ``service_seconds`` entries, and the per-call stats agree
  with the totals the responses report.
"""

import numpy as np
import pytest

from repro.asr.audio import Waveform
from repro.core import IPAQuery
from repro.serving import (
    ASR,
    CLASSIFY,
    IMM,
    QA,
    BreakerPolicy,
    FaultPlan,
    FaultRule,
    PlanExecutor,
    ResiliencePolicy,
    RetryPolicy,
    wrap_services,
)
from repro.serving.faults import FLAP
from tests.test_resilience import stub_services

N_QUERIES = 48
WORKERS = 8
#: ordinals failing the flap window: ordinal % (2 + 3) < 2
FLAP_RULE = FaultRule(kind=FLAP, on=2, off=3)


def _queries():
    return [
        IPAQuery(audio=Waveform(np.ones(64)), text=f"what is item {i}")
        for i in range(N_QUERIES)
    ]


def _executor(breaker=None):
    plan = FaultPlan(seed=0, rules={QA: (FLAP_RULE,)})
    policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=2), breaker=breaker)
    return PlanExecutor(wrap_services(stub_services(), policy, plan))


def test_thread_stress_flapping_qa():
    executor = _executor()
    responses = executor.run_all(
        _queries(), backend="thread", workers=WORKERS, on_error="degrade",
    )
    assert len(responses) == N_QUERIES

    # Responses come back in input order whatever the interleaving was.
    assert [r.transcript for r in responses] == [
        f"what is item {i}" for i in range(N_QUERIES)
    ]

    # Outcomes are exactly the flap arithmetic: no lost or phantom failures.
    for ordinal, response in enumerate(responses):
        flapped = ordinal % 5 < 2
        assert response.degraded == flapped, f"ordinal {ordinal}"
        assert not response.failed  # QA never takes the query down
        if flapped:
            assert response.failures == {"QA": "INJECTED"}
            assert response.answer == ""
            assert "QA" not in response.service_seconds
        else:
            assert response.failures == {}
            assert response.answer == f"answer to what is item {ordinal}"
            assert "QA" in response.service_seconds

    # No dropped ServiceStats: one QA CallRecord per query, each ordinal
    # exactly once, ok-ness matching the response stream.
    qa = executor.services[QA]
    assert sorted(record.ordinal for record in qa.call_log) == list(range(N_QUERIES))
    by_ordinal = {record.ordinal: record for record in qa.call_log}
    for ordinal, response in enumerate(responses):
        record = by_ordinal[ordinal]
        assert record.ok == (not response.degraded)
        assert record.attempts == (2 if response.degraded else 1)

    # Totals consistent with per-call stats: each successful response's
    # recorded QA seconds is the same measurement the call log holds (both
    # wrap the same resilient call), so the totals must agree closely.
    logged = sum(r.seconds for r in qa.call_log if r.ok)
    reported = sum(r.service_seconds["QA"] for r in responses if not r.degraded)
    assert reported == pytest.approx(logged, abs=0.25)


def test_thread_stress_with_breaker_keeps_every_query_answered():
    """With a breaker in the loop outcomes become interleaving-dependent
    (trip points shift with scheduling), so assert the structural
    guarantees only: completion, order, a stable error code on every
    degraded query, and a complete call log."""
    executor = _executor(
        breaker=BreakerPolicy(failure_threshold=3, cooldown_calls=4)
    )
    responses = executor.run_all(
        _queries(), backend="thread", workers=WORKERS, on_error="degrade",
    )
    assert len(responses) == N_QUERIES
    for ordinal, response in enumerate(responses):
        assert response.transcript == f"what is item {ordinal}"
        assert not response.failed
        if response.degraded:
            assert response.failures.get("QA") in {"INJECTED", "CIRCUIT_OPEN"}
        else:
            assert response.answer == f"answer to what is item {ordinal}"
    qa = executor.services[QA]
    assert sorted(record.ordinal for record in qa.call_log) == list(range(N_QUERIES))
    # Breaker rejections are logged, never lost.  A rejection at call entry
    # has attempts == 0; a rejection of a *retry* (the first attempt's
    # failure tripped the breaker) carries the attempts already spent —
    # always fewer than the retry budget.
    rejected = [r for r in qa.call_log if r.code == "CIRCUIT_OPEN"]
    assert all(r.attempts < 2 for r in rejected)
