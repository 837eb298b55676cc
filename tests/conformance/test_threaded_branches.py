"""Dispatch never changes accounting: threaded branches ≡ serial stages.

Every stage runs through the one stage bracket
(:func:`repro.serving.executor.run_stage`) whether the executor walks a
level in place or hands its branches to threads, so under chaos the two
walks must agree on everything replay-comparable: the outcome tuple, the
timing-stripped span forest and each query's charged virtual seconds.
"""

from dataclasses import replace

import pytest

from repro.obs.trace import QUERY
from repro.serving import (
    FaultPlan,
    FaultRule,
    PlanExecutor,
    default_policies,
    wrap_services,
)
from repro.serving.faults import CORRUPT, ERROR, LATENCY
from repro.serving.identity import outcome_fingerprint, replay_divergence
from tests.conformance.stubs import make_mixed_queries, stub_services

SEED = 42

#: Latency, error and corruption on both branches of a VIQ.  The first
#: attempt's error and corruption are retried; the latency spikes outlast
#: the 2 s deadline, so every degradation path runs.
CHAOS = FaultPlan(
    seed=SEED,
    rules={
        "qa": (
            FaultRule(kind=LATENCY, rate=0.3, seconds=3.0),
            FaultRule(kind=ERROR, rate=0.3, max_attempt=1),
            FaultRule(kind=CORRUPT, rate=0.2, max_attempt=1),
        ),
        "imm": (
            FaultRule(kind=LATENCY, rate=0.3, seconds=0.5),
            FaultRule(kind=ERROR, rate=0.3),
            FaultRule(kind=CORRUPT, rate=0.2, max_attempt=1),
        ),
    },
)


def chaos_executor(breakers):
    policies = default_policies(seed=SEED)
    if not breakers:
        policies = {
            name: replace(policy, breaker=None) for name, policy in policies.items()
        }
    return PlanExecutor(
        wrap_services(stub_services(), policies, CHAOS), trace_seed=SEED
    )


def virtual_seconds(responses):
    roots = [
        next(span for span in response.spans if span.kind == QUERY)
        for response in responses
    ]
    return [root.attributes.get("virtual_seconds", 0.0) for root in roots]


# Breaker state is call history: one query at a time (the serial backend)
# replays it with branches threaded or not, whole-query fan-out over
# threads interleaves it — so that sweep runs breaker-less, as every
# cross-backend claim at the PlanExecutor level does.
@pytest.mark.parametrize(
    "backend, breakers", [("serial", True), ("thread", False)]
)
def test_threaded_branches_replay_the_serial_walk(backend, breakers):
    queries = make_mixed_queries(18)

    def run(parallel_branches):
        return chaos_executor(breakers).run_all(
            queries, backend=backend, workers=2, on_error="degrade",
            parallel_branches=parallel_branches,
        )

    serial, threaded = run(False), run(True)
    outcomes = outcome_fingerprint(serial)
    assert {outcome[0] for outcome in outcomes} == {"VC", "VQ", "VIQ"}
    assert any(outcome[4] for outcome in outcomes), "chaos plan never fired"
    assert any(virtual_seconds(serial)), "no virtual latency was charged"
    for divergence in replay_divergence(threaded, serial):
        assert divergence is None, f"threaded vs serial on {backend}: {divergence}"
    assert virtual_seconds(threaded) == virtual_seconds(serial)
