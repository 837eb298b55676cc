"""Fan-out stress: eight forked workers versus a flapping faulty service.

Many queries fan out over forked workers while QA flaps (hard-failing two
of every five ordinals through all retries).  The suite asserts the
invariants that matter when the stream is split across processes:

- the run completes (no deadlock) and returns one response per query, in
  input order;
- outcomes are exactly the deterministic flap prediction — degraded iff
  the ordinal falls in the flap window — whichever worker served which
  ordinal.
"""

import numpy as np

from repro.asr.audio import Waveform
from repro.core import IPAQuery
from repro.serving import (
    QA,
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


def _executor():
    plan = FaultPlan(seed=0, rules={QA: (FLAP_RULE,)})
    policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=2))
    return PlanExecutor(wrap_services(stub_services(), policy, plan))


def test_process_stress_flapping_qa():
    responses = _executor().run_all(
        _queries(), workers=WORKERS, on_error="degrade",
    )
    assert len(responses) == N_QUERIES

    # Responses come back in input order whatever worker served them.
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
