"""Reusable conformance checks for any cluster deployment.

Each ``check_*`` function raises ``AssertionError`` with a diagnostic
message when the contract is violated and returns evidence (fingerprints,
replay results) otherwise, so test modules can layer extra assertions on
top.  Nothing here is stub-specific: the same checks run against the real
Sirius pipeline in the degradation tests.
"""

import math

from repro.datacenter.queueing import mm1_percentile
from repro.errors import ConfigurationError
from repro.obs.trace import ROUTER
from repro.serving.cluster import seeded_replay
from repro.serving.identity import (
    outcome_fingerprint,
    replay_divergence,
    span_fingerprint,
)

#: Worker counts every replay runs at: the in-line reference, then forked
#: pools of two cores, more workers than replicas, and more workers than
#: most boxes have cores.
WORKERS = (1, 2, 4, 8)
POLICIES = ("round-robin", "least-loaded", "power-of-two")

#: Documented tail-prediction contract: the virtual-time replay's p99 must
#: land within 20% of the analytic M/M/1 p99 at matched utilization (the
#: measured gap at 50k arrivals is ~7-10%; the slack absorbs sampling noise
#: without letting a broken queue model through).
TAIL_BOUND = 0.20


def check_conservation(cluster, queries, responses):
    """Exactly one response per query, in order, admitted or shed."""
    assert len(responses) == len(queries), (
        f"conservation violated: {len(queries)} queries -> "
        f"{len(responses)} responses"
    )
    decisions = cluster.plan_routes(len(queries))
    assert len(decisions) == len(queries)
    for decision, query, response in zip(decisions, queries, responses):
        if not decision.admitted:
            assert response.failures.get("ROUTER") == "ADMISSION", (
                f"ordinal {decision.ordinal}: shed by admission control but "
                f"response reports {response.failures!r}"
            )
            assert response.failed and response.degraded
            continue
        assert "ROUTER" not in response.failures, (
            f"ordinal {decision.ordinal}: admitted but response carries a "
            f"router failure {response.failures!r}"
        )
        if "ASR" not in response.failures:
            # Stub and real ASR alike transcribe *this* query; a mismatch
            # means responses came back out of order or cross-wired.
            assert query.text is None or response.transcript == query.text, (
                f"ordinal {decision.ordinal}: transcript "
                f"{response.transcript!r} does not match query {query.text!r}"
            )
    return decisions


def check_router_spans(cluster, responses):
    """Every admitted trace carries exactly one router span with placement."""
    decisions = cluster.plan_routes(len(responses))
    for decision, response in zip(decisions, responses):
        spans = [span for span in response.spans if span.kind == ROUTER]
        assert len(spans) == 1, (
            f"ordinal {decision.ordinal}: expected one router span, "
            f"found {len(spans)}"
        )
        span = spans[0]
        assert span.attributes.get("policy") == cluster.policy.name
        assert span.attributes.get("replica") == decision.replica or (
            not decision.admitted
        )
        assert span.attributes.get("queue_depth") == decision.queue_depth
        if decision.admitted:
            assert span.wait == span.duration, (
                "router span must attribute its whole window as queue wait"
            )
    return decisions


def check_replay(make_cluster, queries, worker_counts=WORKERS, runs=2):
    """Byte-identical outcomes and span forests across runs and worker
    counts; a failure names the first diverging ordinal and field."""
    reference = reference_key = None
    for workers in worker_counts:
        for run in range(runs):
            responses = make_cluster().run_all(queries, workers=workers)
            key = f"workers={workers}#{run}"
            if reference is None:
                reference, reference_key = responses, key
                continue
            for divergence in replay_divergence(responses, reference):
                assert divergence is None, (
                    f"{key} vs {reference_key}: {divergence}"
                )
    return outcome_fingerprint(reference), span_fingerprint(reference)


def check_tail_bound(
    policy,
    load=0.7,
    mean_service=0.01,
    n_queries=50_000,
    seed=0,
    bound=TAIL_BOUND,
):
    """Replayed p99 within the documented bound of analytic M/M/1."""
    result = seeded_replay(
        "poisson", load / mean_service, mean_service, n_queries,
        seed=seed, policy=policy, n_replicas=1,
    )
    assert math.isclose(result.utilization, load, rel_tol=0.05), (
        f"replay drifted off target utilization: {result.utilization:.3f} "
        f"vs {load:.3f}"
    )
    error = mm1_error(result)
    assert error is not None and error < bound, (
        f"{policy}: replay p99 {result.p99_response * 1e3:.1f} ms is "
        f"{error:.1%} off the M/M/1 prediction "
        f"{mm1_p99(result) * 1e3:.1f} ms (bound {bound:.0%})"
    )
    return result


def mm1_p99(result) -> float:
    """Closed-form M/M/1 p99 at this run's measured service mean and load.

    Exact only for the M/M/1 configuration (one replica, Poisson
    arrivals, exponential service); for everything else it is the
    analytic baseline the measured tail is compared against.
    """
    if not 0 < result.utilization < 1:
        raise ConfigurationError(
            "mm1_p99 needs utilization in (0, 1); the replay measured "
            f"{result.utilization:.3f}"
        )
    return mm1_percentile(result.mean_service, result.utilization, 99.0)


def mm1_error(result) -> float:
    """Relative error of the measured p99 against the M/M/1 prediction."""
    predicted = mm1_p99(result)
    return abs(result.p99_response - predicted) / predicted if predicted else 0.0


def check_replay_digest(policy, n_queries=2_000, seed=0, **kwargs):
    """The simulator itself replays byte-identically (digest run-twice)."""
    digests = [
        seeded_replay(
            "poisson", 50.0, 0.01, n_queries,
            seed=seed, policy=policy, n_replicas=2, **kwargs,
        ).digest()
        for _ in range(2)
    ]
    assert digests[0] == digests[1], f"{policy}: replay digest diverged"
    return digests[0]
