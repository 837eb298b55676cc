"""Tests for capacity planning and the queue model's one event loop."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datacenter import (
    CapacityPlanner,
    MM1Queue,
    PoissonProcess,
    WorkloadMix,
    deterministic_sampler,
    empirical_sampler,
    exponential_sampler,
)
from repro.errors import ConfigurationError, DesignError
from repro.platforms import CMP, FPGA, GPU, PHI, PLATFORMS
from repro.serving.cluster import replay_cluster, seeded_replay


class TestWorkloadMix:
    def test_default_sums_to_one(self):
        mix = WorkloadMix()
        assert mix.vc + mix.vq + mix.viq == pytest.approx(1.0)

    def test_bad_sum_rejected(self):
        with pytest.raises(DesignError):
            WorkloadMix(vc=0.5, vq=0.5, viq=0.5)

    def test_negative_rejected(self):
        with pytest.raises(DesignError):
            WorkloadMix(vc=1.2, vq=-0.2, viq=0.0)

    def test_fraction_lookup(self):
        mix = WorkloadMix(vc=0.2, vq=0.3, viq=0.5)
        assert mix.fraction("VIQ") == 0.5


class TestCapacityPlanner:
    @pytest.fixture(scope="class")
    def planner(self):
        return CapacityPlanner()

    @pytest.fixture(scope="class")
    def mix(self):
        return WorkloadMix()

    def test_viq_costs_more_than_vc(self, planner):
        for platform in PLATFORMS:
            assert planner.query_service_time("VIQ", platform) > planner.query_service_time(
                "VC", platform
            )

    def test_accelerators_need_fewer_servers_than_baseline(self, planner, mix):
        cmp_plan = planner.plan(mix, 50.0, CMP)
        for platform in (GPU, FPGA):
            assert planner.plan(mix, 50.0, platform).n_servers < cmp_plan.n_servers

    def test_phi_is_worst(self, planner, mix):
        plans = {p: planner.plan(mix, 50.0, p) for p in PLATFORMS}
        assert plans[PHI].monthly_cost == max(pl.monthly_cost for pl in plans.values())

    def test_fpga_cheapest_for_default_mix(self, planner, mix):
        # Consistent with Figure 18: FPGA has the lowest aggregate
        # normalized TCO in our model.
        assert planner.cheapest_platform(mix, 100.0).platform == FPGA

    def test_servers_scale_linearly(self, planner, mix):
        small = planner.plan(mix, 10.0, GPU).n_servers
        large = planner.plan(mix, 100.0, GPU).n_servers
        assert 8 * small <= large <= 12 * small

    def test_power_capped_design_prefers_fpga(self, planner, mix):
        # The paper: FPGA "is desirable for datacenters with power
        # constraints ... capped power infrastructure support".
        platform, load = planner.power_capped_design(mix, 50_000.0)
        assert platform == FPGA
        assert load > 0

    def test_validation(self, planner, mix):
        with pytest.raises(DesignError):
            planner.plan(mix, 0.0, GPU)
        with pytest.raises(DesignError):
            planner.max_load_under_power_cap(mix, -5.0, GPU)
        with pytest.raises(DesignError):
            CapacityPlanner(headroom=0.0)

    def test_cost_per_qps(self, planner, mix):
        plan = planner.plan(mix, 100.0, FPGA)
        assert plan.cost_per_qps == pytest.approx(plan.monthly_cost / 100.0)

    @given(st.floats(1.0, 500.0))
    @settings(deadline=None, max_examples=20)
    def test_capacity_always_met(self, qps):
        planner = CapacityPlanner()
        mix = WorkloadMix()
        plan = planner.plan(mix, qps, GPU)
        assert plan.n_servers * planner.server_capacity_qps(mix, GPU) >= qps * 0.999


def mm1_point(load):
    """(replayed, analytic) mean response of one M/M/1 point, service 1 s."""
    replayed = seeded_replay("poisson", load, 1.0, 20_000, seed=7).mean_response
    return replayed, MM1Queue(1.0).response_time(load)


def pollaczek_khinchine_wait(rate, mean_service, second_moment):
    """M/G/1 mean queueing delay: lambda E[S^2] / (2 (1 - rho))."""
    return rate * second_moment / (2.0 * (1.0 - rate * mean_service))


class TestSimulator:
    def test_mm1_agreement_moderate_load(self):
        simulated, analytic = mm1_point(0.5)
        assert simulated == pytest.approx(analytic, rel=0.1)

    def test_response_time_grows_with_load(self):
        low, _ = mm1_point(0.2)
        high, _ = mm1_point(0.8)
        assert high > low

    def test_md1_beats_mm1(self):
        # Deterministic service halves queueing delay vs exponential, and
        # both sit on the Pollaczek-Khinchine mean wait (E[S^2] = 1 for
        # M/D/1, 2 for M/M/1, at unit mean service).
        rate = 0.5
        exp = replay_cluster(
            PoissonProcess(rate), exponential_sampler(1.0, seed=2), 20_000, seed=3
        )
        det = replay_cluster(
            PoissonProcess(rate), deterministic_sampler(1.0), 20_000, seed=3
        )
        assert det.mean_wait < exp.mean_wait
        assert det.mean_wait == pytest.approx(
            pollaczek_khinchine_wait(rate, 1.0, 1.0), rel=0.1
        )
        assert exp.mean_wait == pytest.approx(
            pollaczek_khinchine_wait(rate, 1.0, 2.0), rel=0.1
        )

    def test_more_servers_reduce_waiting(self):
        def replicas(n):
            return replay_cluster(
                PoissonProcess(1.5), deterministic_sampler(1.0), 5000,
                policy="least-loaded", n_replicas=n,
            )

        assert replicas(8).mean_wait <= replicas(2).mean_wait

    def test_empirical_sampler_uses_samples(self):
        sampler = empirical_sampler([2.0], seed=1)
        assert sampler() == 2.0

    def test_p95_at_least_mean(self):
        result = replay_cluster(PoissonProcess(0.5), exponential_sampler(1.0), 5000)
        assert result.p95_response >= result.mean_response

    def test_utilization_bounded(self):
        result = replay_cluster(PoissonProcess(0.9), exponential_sampler(1.0), 5000)
        assert 0 < result.utilization <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonProcess(0.0)
        with pytest.raises(ConfigurationError):
            replay_cluster(
                PoissonProcess(1.0), deterministic_sampler(1.0), 10, n_replicas=0
            )
        with pytest.raises(ConfigurationError):
            exponential_sampler(0.0)
        with pytest.raises(ConfigurationError):
            deterministic_sampler(-1.0)
        with pytest.raises(ConfigurationError):
            empirical_sampler([])
        with pytest.raises(ConfigurationError):
            seeded_replay("poisson", 1.0, 1.0, 0)
