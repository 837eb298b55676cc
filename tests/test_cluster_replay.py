"""Arrival processes, the SLO autoscaler, and the virtual-time replay driver.

Everything here is seed-deterministic by construction; the tests pin that
down (prefix-stable streams, pure scaling decisions, byte-stable digests)
and sanity-check the statistics against their defining formulas (Poisson
mean rate, diurnal modulation, MMPP mean-rate mixture, M/M/1 tails —
the deeper tail-agreement bound lives in tests/conformance/).
"""

import math
import random

import pytest

from repro.datacenter import (
    BurstyProcess,
    DiurnalProcess,
    PoissonProcess,
    exponential_sampler,
    make_process,
    mm1_percentile,
)
from repro.errors import ConfigurationError
from repro.serving.cluster import (
    HOLD,
    SCALE_DOWN,
    SCALE_UP,
    AutoscalerPolicy,
    replay_cluster,
)
from repro.serving.cluster.autoscaler import DOWN_PROBABILITY
from tests.conformance.suite import mm1_p99


PROCESSES = (
    PoissonProcess(rate=40.0),
    DiurnalProcess(base_rate=40.0),
    BurstyProcess(base_rate=20.0, burst_rate=120.0),
)


class TestArrivalProcesses:
    @pytest.mark.parametrize("process", PROCESSES, ids=lambda p: type(p).__name__)
    def test_streams_are_prefix_stable(self, process):
        short = process.times(100, seed=3)
        long = process.times(400, seed=3)
        assert long[:100] == short

    @pytest.mark.parametrize("process", PROCESSES, ids=lambda p: type(p).__name__)
    def test_times_are_strictly_increasing(self, process):
        times = process.times(500, seed=1)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] > 0

    def test_poisson_mean_rate_matches(self):
        times = PoissonProcess(rate=50.0).times(20_000, seed=0)
        measured = len(times) / times[-1]
        assert measured == pytest.approx(50.0, rel=0.05)

    def test_diurnal_rate_modulates_around_base(self):
        process = DiurnalProcess(base_rate=40.0)  # amplitude 0.5, period 60 s
        assert process.rate_at(0.0) == pytest.approx(40.0)
        assert process.rate_at(15.0) == pytest.approx(60.0)  # peak
        assert process.rate_at(45.0) == pytest.approx(20.0)  # trough
        # Over whole periods the thinned stream averages the base rate.
        times = process.times(30_000, seed=0)
        horizon = math.floor(times[-1] / 60.0) * 60.0
        n = sum(1 for t in times if t <= horizon)
        assert n / horizon == pytest.approx(40.0, rel=0.05)

    def test_bursty_mean_rate_is_the_state_mixture(self):
        process = BurstyProcess(base_rate=20.0, burst_rate=120.0)  # holds 20 s / 5 s
        expected = (20.0 * 20.0 + 120.0 * 5.0) / 25.0
        assert process.mean_rate == pytest.approx(expected)
        # Regeneration cycles are ~25 s long, so the time-average converges
        # slowly: 150k arrivals gives ~150 cycles and a few percent of
        # residual noise at these pinned seeds.
        times = process.times(150_000, seed=2)
        measured = len(times) / times[-1]
        assert measured == pytest.approx(expected, rel=0.10)

    def test_make_process_registry(self):
        assert isinstance(make_process("poisson", 10.0), PoissonProcess)
        assert isinstance(make_process("diurnal", 10.0), DiurnalProcess)
        assert isinstance(make_process("bursty", 10.0), BurstyProcess)
        with pytest.raises(ConfigurationError):
            make_process("lognormal", 10.0)


class TestAutoscaler:
    def policy(self, max_replicas=6):
        return AutoscalerPolicy(slo_p99=0.100, max_replicas=max_replicas)

    def test_decisions_are_pure_in_seed_and_tick(self):
        policy = self.policy()
        for tick in range(20):
            for p99 in (0.01, 0.08, 0.15):
                first = policy.decide(tick, p99, 3, seed=5)
                again = policy.decide(tick, p99, 3, seed=5)
                assert first == again

    def test_slo_violation_scales_up_until_the_cap(self):
        policy = self.policy(max_replicas=4)
        decision = policy.decide(0, 0.200, 3, seed=0)
        assert decision.action == SCALE_UP and decision.n_replicas == 4
        capped = policy.decide(1, 0.200, 4, seed=0)
        assert capped.action == HOLD and capped.n_replicas == 4

    def test_dead_band_holds(self):
        policy = self.policy()
        # p99 inside [HYSTERESIS * slo, slo] (HYSTERESIS = 0.8): neither
        # direction fires.
        decision = policy.decide(0, 0.090, 3, seed=0)
        assert decision.action == HOLD and decision.n_replicas == 3

    def test_scale_down_is_a_seeded_coin_bounded_below(self):
        policy = self.policy()
        decisions = [policy.decide(tick, 0.010, 3, seed=0) for tick in range(40)]
        for tick, decision in enumerate(decisions):
            heads = random.Random(f"0:{tick}:scale").random() < DOWN_PROBABILITY
            assert decision.action == (SCALE_DOWN if heads else HOLD)
            assert decision.n_replicas == (2 if heads else 3)
        # A fair coin over 40 ticks: both sides come up.
        assert {d.action for d in decisions} == {SCALE_DOWN, HOLD}
        for tick in range(40):
            floor = policy.decide(tick, 0.010, 1, seed=0)
            assert floor.action == HOLD and floor.n_replicas == 1

    def test_changed_flag(self):
        policy = self.policy()
        assert policy.decide(0, 0.200, 1, seed=0).action != HOLD
        assert policy.decide(0, 0.090, 1, seed=0).action == HOLD


class TestReplayDriver:
    def test_utilization_tracks_the_offered_load(self):
        result = replay_cluster(
            PoissonProcess(rate=60.0),
            exponential_sampler(0.01, seed=3),
            n_queries=20_000,
            policy="round-robin",
            n_replicas=1,
            seed=0,
        )
        assert result.utilization == pytest.approx(0.6, rel=0.05)
        assert result.p50_response <= result.p95_response <= result.p99_response
        assert mm1_p99(result) == pytest.approx(
            mm1_percentile(result.mean_service, result.utilization, 99)
        )

    def test_autoscaler_rides_the_burst(self):
        result = replay_cluster(
            BurstyProcess(base_rate=60.0, burst_rate=400.0),
            exponential_sampler(0.01, seed=3),
            n_queries=20_000,
            policy="power-of-two",
            n_replicas=2,
            seed=0,
            autoscaler=AutoscalerPolicy(slo_p99=0.040, max_replicas=8),
            tick_seconds=2.0,
        )
        actions = {d.action for d in result.decisions}
        assert SCALE_UP in actions, "bursty overload must trigger scale-up"
        assert len(result.replica_timeline) > 1
        peak = max(n for _, n in result.replica_timeline)
        assert peak > 2
        # Conservation holds under scaling too.
        assert result.n_admitted + result.n_rejected == result.n_queries

    def test_more_replicas_cut_the_tail(self):
        def run(n_replicas):
            return replay_cluster(
                PoissonProcess(rate=160.0),
                exponential_sampler(0.01, seed=3),
                n_queries=20_000,
                policy="least-loaded",
                n_replicas=n_replicas,
                seed=0,
            )

        two = run(2)
        four = run(4)
        assert four.p99_response < two.p99_response
        assert four.utilization == pytest.approx(two.utilization / 2, rel=0.05)
