"""Tail-prediction conformance: replay vs. analytic M/M/1, per policy.

The replay driver is only trustworthy as a capacity-planning tool if its
simulated tail agrees with queueing theory where theory applies: a single
replica fed Poisson arrivals with exponential service *is* an M/M/1 queue,
so the replayed p99 must land within :data:`suite.TAIL_BOUND` of the
closed-form percentile at matched utilization.  Every policy must satisfy
the bound (with one replica they must in fact agree exactly — a policy
with only one choice cannot change the queue), and the digest must replay
byte-identically run over run.
"""

import pytest

from repro.datacenter import PoissonProcess, exponential_sampler
from repro.serving.cluster import (
    AdmissionControl,
    AutoscalerPolicy,
    replay_cluster,
)

from tests.conformance import suite


@pytest.mark.parametrize("policy", suite.POLICIES)
class TestTailBound:
    def test_replay_p99_within_documented_bound(self, policy):
        result = suite.check_tail_bound(policy, n_queries=50_000, seed=0)
        assert result.n_rejected == 0
        assert result.n_admitted == result.n_queries

    def test_digest_replays_byte_identically(self, policy):
        suite.check_replay_digest(policy, seed=4)

    def test_digest_stable_with_admission_and_autoscaler(self, policy):
        suite.check_replay_digest(
            policy,
            seed=4,
            admission=AdmissionControl(max_depth=30, seed=4),
            autoscaler=AutoscalerPolicy(slo_p99=0.05, max_replicas=4),
            tick_seconds=2.0,
        )


class TestReplayConservation:
    def test_every_arrival_accounted(self):
        result = replay_cluster(
            PoissonProcess(rate=120.0),
            exponential_sampler(0.01, seed=1),
            n_queries=5_000,
            policy="power-of-two",
            n_replicas=2,
            seed=0,
            admission=AdmissionControl(max_depth=12, seed=0),
        )
        assert result.n_admitted + result.n_rejected == result.n_queries
        assert len(result.outcomes) == result.n_queries
        admitted = [o for o in result.outcomes if o.admitted]
        assert len(admitted) == result.n_admitted
        # Waits and service times only exist for admitted work.
        assert all(o.wait >= 0 and o.service > 0 for o in admitted)
        assert all(
            o.wait == 0 and o.service == 0
            for o in result.outcomes
            if not o.admitted
        )
