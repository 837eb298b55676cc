"""Cluster conformance: conservation, replay identity, router contract.

Every check runs for every routing policy; the replay check additionally
sweeps all execution backends twice under the default chaos plan, which is
the strongest determinism statement the serving layer makes: the same
``(seed, query stream)`` yields byte-identical outcomes and span forests
no matter how the work is scheduled or how the fleet misbehaves.
"""

import pytest

from repro.errors import ConfigurationError
from repro.serving import default_chaos_plan
from repro.serving.cluster import AdmissionControl, Cluster

from tests.conformance import suite
from tests.conformance.stubs import make_queries, stub_cluster, stub_services
from repro.serving import PlanExecutor


@pytest.mark.parametrize("policy", suite.POLICIES)
class TestConservation:
    def test_every_query_answered_in_order(self, policy):
        cluster = stub_cluster(n_replicas=3, policy=policy, seed=5)
        queries = make_queries(16)
        responses = cluster.run_all(queries)
        suite.check_conservation(cluster, queries, responses)

    def test_conserved_under_admission_shedding(self, policy):
        cluster = stub_cluster(
            n_replicas=2, policy=policy, seed=5, drop_rate=0.3
        )
        queries = make_queries(20)
        responses = cluster.run_all(queries)
        decisions = suite.check_conservation(cluster, queries, responses)
        shed = [d for d in decisions if not d.admitted]
        assert shed, "drop_rate=0.3 over 20 queries should shed at least one"
        assert len(shed) < len(queries), "admission must not shed everything"

    def test_conserved_under_chaos(self, policy):
        cluster = stub_cluster(
            n_replicas=3,
            policy=policy,
            seed=5,
            fault_plan=default_chaos_plan(11),
        )
        queries = make_queries(12)
        responses = cluster.run_all(queries)
        suite.check_conservation(cluster, queries, responses)
        # The ASR outage at ordinal 5 is fatal: that query fails but is
        # still answered with a well-formed degraded response.
        assert responses[5].failed
        assert "ASR" in responses[5].failures


@pytest.mark.parametrize("policy", suite.POLICIES)
class TestRouterContract:
    def test_router_span_on_every_trace(self, policy):
        cluster = stub_cluster(n_replicas=3, policy=policy, seed=2)
        queries = make_queries(10)
        responses = cluster.run_all(queries)
        suite.check_router_spans(cluster, responses)

    def test_routes_are_a_pure_fold(self, policy):
        cluster = stub_cluster(n_replicas=4, policy=policy, seed=9)
        first = [d.key() for d in cluster.plan_routes(32)]
        second = [d.key() for d in cluster.plan_routes(32)]
        assert first == second
        # Prefix stability: planning a longer stream never rewrites the
        # decisions already made for its prefix.
        longer = [d.key() for d in cluster.plan_routes(64)]
        assert longer[:32] == first

    def test_replica_bounds_checked(self, policy):
        from repro.serving.cluster import RoutingPolicy

        class RoguePolicy(RoutingPolicy):
            name = "rogue"

            def choose(self, ordinal, depths, seed=0):  # noqa: ARG002
                return len(depths)  # out of range

        executors = [PlanExecutor(stub_services()) for _ in range(2)]
        cluster = Cluster(executors, policy=RoguePolicy(), seed=0)
        with pytest.raises(ConfigurationError):
            cluster.plan_routes(1)


@pytest.mark.parametrize("policy", suite.POLICIES)
class TestReplayIdentity:
    def test_byte_identical_across_backends_and_runs(self, policy):
        queries = make_queries(10)

        def make_cluster():
            return stub_cluster(n_replicas=3, policy=policy, seed=3)

        suite.check_replay(make_cluster, queries)

    def test_byte_identical_under_chaos_and_admission(self, policy):
        """Satellite: chaos + shedding + all backends, still one byte-stream."""
        queries = make_queries(12)

        def make_cluster():
            return stub_cluster(
                n_replicas=3,
                policy=policy,
                seed=3,
                fault_plan=default_chaos_plan(11),
                drop_rate=0.2,
            )

        outcomes, _ = suite.check_replay(make_cluster, queries)
        shed = [o for o in outcomes if dict(o[5]).get("ROUTER") == "ADMISSION"]
        assert shed, "chaos replay should exercise the rejection path too"


def test_check_replay_names_the_first_diverging_ordinal_and_field():
    """A fleet whose IMM breaker trips one call early in every other build."""
    from repro.serving import (
        IMM,
        BreakerPolicy,
        FaultPlan,
        FaultRule,
        ResiliencePolicy,
        RetryPolicy,
        wrap_services,
    )
    from repro.serving.faults import ERROR

    plan = FaultPlan(seed=0, rules={IMM: (FaultRule(kind=ERROR),)})
    thresholds = iter((3, 2))

    def make_cluster():
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerPolicy(failure_threshold=next(thresholds)),
        )
        services = wrap_services(stub_services(), {IMM: policy}, fault_plan=plan)
        return Cluster([PlanExecutor(services, trace_seed=0)], policy="round-robin")

    with pytest.raises(AssertionError) as failure:
        suite.check_replay(make_cluster, make_queries(8), backends=("serial",))
    assert str(failure.value) == (
        "serial/None#1 vs serial/None#0: "
        "ordinal 4 failures: IMM:CIRCUIT_OPEN vs IMM:INJECTED"
    )


class TestAdmissionDeterminism:
    def test_decisions_pure_in_seed_and_ordinal(self):
        control = AdmissionControl(max_depth=4, drop_rate=0.2, seed=7)
        again = AdmissionControl(max_depth=4, drop_rate=0.2, seed=7)
        for ordinal in range(64):
            for depth in (0, 3, 4, 9):
                assert control.admit(ordinal, depth) == again.admit(
                    ordinal, depth
                )

    def test_max_depth_is_a_hard_wall(self):
        control = AdmissionControl(max_depth=2, seed=0)
        assert not control.admit(0, 2)
        assert not control.admit(1, 5)
        assert control.admit(2, 1)
