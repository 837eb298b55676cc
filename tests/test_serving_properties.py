"""Property-based tests for the serving layer (hypothesis).

Randomized structural checks the example-based suites cannot cover:

- **retry/backoff invariants**: the unjittered schedule is monotone
  non-decreasing and capped, and every jittered delay stays inside the
  ``raw * [1 - jitter, 1 + jitter]`` envelope, deterministically per
  ``(seed, service, ordinal)``;
- **fault plans** are pure functions of ``(seed, service, ordinal,
  attempt)`` with window kinds (flap/outage) matching their arithmetic
  definition exactly.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import FaultPlan, FaultRule, RetryPolicy
from repro.serving.faults import ERROR, FAULT_KINDS, FLAP, LATENCY, OUTAGE
from repro.serving.resilience import BACKOFF_MAX, backoff_rng
from tests.test_resilience import schedule


# -- strategies --------------------------------------------------------------------


retry_policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=8),
    backoff_base=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


# -- retry / backoff invariants ----------------------------------------------------


class TestRetryProperties:
    @settings(deadline=None, max_examples=300)
    @given(policy=retry_policies)
    def test_raw_schedule_monotone_and_capped(self, policy):
        raw = [policy.raw_delay(i) for i in range(policy.max_attempts - 1)]
        assert all(b >= a for a, b in zip(raw, raw[1:]))
        assert all(0.0 <= delay <= BACKOFF_MAX for delay in raw)

    @settings(deadline=None, max_examples=300)
    @given(policy=retry_policies,
           seed=st.integers(min_value=0, max_value=2**31),
           ordinal=st.integers(min_value=0, max_value=10_000))
    def test_jittered_schedule_within_envelope_and_bounded(
        self, policy, seed, ordinal
    ):
        delays = schedule(policy, seed=seed, service="qa", ordinal=ordinal)
        assert len(delays) == policy.max_attempts - 1
        for i, delay in enumerate(delays):
            raw = policy.raw_delay(i)
            assert delay >= 0.0
            assert raw * (1.0 - policy.jitter) - 1e-12 <= delay
            assert delay <= raw * (1.0 + policy.jitter) + 1e-12
            assert delay <= BACKOFF_MAX * (1.0 + policy.jitter) + 1e-12

    @settings(deadline=None, max_examples=100)
    @given(policy=retry_policies,
           seed=st.integers(min_value=0, max_value=2**31),
           ordinal=st.integers(min_value=0, max_value=10_000))
    def test_schedule_is_deterministic(self, policy, seed, ordinal):
        first = schedule(policy, seed=seed, service="imm", ordinal=ordinal)
        second = schedule(policy, seed=seed, service="imm", ordinal=ordinal)
        assert first == second

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           ordinal=st.integers(min_value=0, max_value=10_000))
    def test_backoff_rng_streams_are_independent_per_service(self, seed, ordinal):
        a = backoff_rng(seed, "qa", ordinal).random()
        b = backoff_rng(seed, "qa", ordinal).random()
        assert a == b  # same key, same stream
        assert isinstance(backoff_rng(seed, "imm", ordinal), random.Random)


# -- fault-plan purity -------------------------------------------------------------


fault_rules = st.one_of(
    st.builds(FaultRule, kind=st.just(ERROR),
              rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
    st.builds(FaultRule, kind=st.just(LATENCY),
              rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
              seconds=st.floats(min_value=0.001, max_value=10.0,
                                allow_nan=False)),
    st.builds(FaultRule, kind=st.just(FLAP),
              on=st.integers(min_value=1, max_value=5),
              off=st.integers(min_value=0, max_value=5)),
    st.builds(FaultRule, kind=st.just(OUTAGE),
              start=st.integers(min_value=0, max_value=20),
              stop=st.integers(min_value=21, max_value=40)),
)


class TestFaultPlanProperties:
    @settings(deadline=None, max_examples=150)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           rules=st.lists(fault_rules, min_size=1, max_size=4),
           ordinal=st.integers(min_value=0, max_value=200),
           attempt=st.integers(min_value=0, max_value=4))
    def test_fault_for_is_a_pure_function(self, seed, rules, ordinal, attempt):
        plan = FaultPlan(seed=seed, rules={"qa": tuple(rules)})
        twin = FaultPlan(seed=seed, rules={"qa": tuple(rules)})
        assert (plan.fault_for("qa", ordinal, attempt)
                == twin.fault_for("qa", ordinal, attempt))

    @settings(deadline=None, max_examples=150)
    @given(on=st.integers(min_value=1, max_value=6),
           off=st.integers(min_value=0, max_value=6),
           ordinal=st.integers(min_value=0, max_value=500))
    def test_flap_fires_exactly_on_its_window_arithmetic(self, on, off, ordinal):
        plan = FaultPlan(rules={"imm": (FaultRule(kind=FLAP, on=on, off=off),)})
        fired = plan.fault_for("imm", ordinal, 0) is not None
        assert fired == (ordinal % (on + off) < on)

    @settings(deadline=None, max_examples=150)
    @given(start=st.integers(min_value=0, max_value=50),
           length=st.integers(min_value=1, max_value=50),
           ordinal=st.integers(min_value=0, max_value=200))
    def test_outage_fires_exactly_inside_its_window(self, start, length, ordinal):
        rule = FaultRule(kind=OUTAGE, start=start, stop=start + length)
        plan = FaultPlan(rules={"asr": (rule,)})
        fired = plan.fault_for("asr", ordinal, 0) is not None
        assert fired == (start <= ordinal < start + length)

    def test_every_declared_kind_is_constructible(self):
        for kind in FAULT_KINDS:
            kwargs = {"kind": kind}
            if kind == LATENCY:
                kwargs["seconds"] = 1.0
            if kind == FLAP:
                kwargs["on"] = 1
            if kind == OUTAGE:
                kwargs["stop"] = 1
            assert FaultRule(**kwargs).kind == kind


# -- routing policies --------------------------------------------------------------


from repro.serving.cluster import (  # noqa: E402
    AdmissionControl,
    LeastLoadedPolicy,
    PowerOfTwoPolicy,
    RoundRobinPolicy,
    get_policy,
)

depth_vectors = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=8
)


class TestRoutingPolicyProperties:
    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           ordinal=st.integers(min_value=0, max_value=500),
           depths=depth_vectors)
    def test_choices_are_pure_in_seed_and_ordinal(self, seed, ordinal, depths):
        for name in ("round-robin", "least-loaded", "power-of-two"):
            first = get_policy(name).choose(ordinal, tuple(depths), seed=seed)
            again = get_policy(name).choose(ordinal, tuple(depths), seed=seed)
            assert first == again
            assert 0 <= first < len(depths)

    @settings(deadline=None, max_examples=200)
    @given(ordinal=st.integers(min_value=0, max_value=500),
           depths=depth_vectors)
    def test_least_loaded_is_never_strictly_worse(self, ordinal, depths):
        choice = LeastLoadedPolicy().choose(ordinal, tuple(depths))
        assert depths[choice] == min(depths)
        # Ties break to the lowest index, deterministically.
        assert choice == depths.index(min(depths))

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           ordinal=st.integers(min_value=0, max_value=500),
           depths=depth_vectors)
    def test_power_of_two_takes_the_lighter_of_its_two_draws(
        self, seed, ordinal, depths
    ):
        choice = PowerOfTwoPolicy().choose(ordinal, tuple(depths), seed=seed)
        if len(depths) == 1:
            assert choice == 0
            return
        # Recompute the seeded coin exactly as the policy documents it.
        rng = random.Random(f"{seed}:{ordinal}:p2c")
        candidates = sorted({rng.randrange(len(depths)),
                             rng.randrange(len(depths))})
        assert choice in candidates
        assert depths[choice] == min(depths[c] for c in candidates)
        # Equal-depth ties break to the lower replica index.
        assert choice == min(
            c for c in candidates if depths[c] == depths[choice]
        )

    @settings(deadline=None, max_examples=150)
    @given(ordinal=st.integers(min_value=0, max_value=500),
           depths=depth_vectors)
    def test_round_robin_ignores_load(self, ordinal, depths):
        assert RoundRobinPolicy().choose(ordinal, tuple(depths)) == (
            ordinal % len(depths)
        )


class TestAdmissionProperties:
    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           ordinal=st.integers(min_value=0, max_value=500),
           depth=st.integers(min_value=0, max_value=60),
           max_depth=st.integers(min_value=0, max_value=40),
           drop_rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_admission_is_pure_and_depth_wall_is_hard(
        self, seed, ordinal, depth, max_depth, drop_rate
    ):
        control = AdmissionControl(
            max_depth=max_depth, drop_rate=drop_rate, seed=seed
        )
        twin = AdmissionControl(
            max_depth=max_depth, drop_rate=drop_rate, seed=seed
        )
        decision = control.admit(ordinal, depth)
        assert decision == twin.admit(ordinal, depth)
        if max_depth and depth >= max_depth:
            assert decision is False
        if drop_rate == 0.0 and (not max_depth or depth < max_depth):
            assert decision is True


class TestPowerOfTwoBeatsBlindPlacement:
    """The Mitzenmacher collapse, measured on an adversarial depth stream.

    Departures drain a seeded-random replica each step, so queue depths
    drift apart; round-robin keeps assigning blindly while power-of-two
    reacts to the imbalance.  With pinned seeds the peak queue depth under
    power-of-two must never exceed round-robin's, and least-loaded must do
    at least as well as power-of-two.
    """

    def _peak_depth(self, policy_name, seed, n_replicas=4, n_steps=600):
        policy = get_policy(policy_name)
        departures = random.Random(f"{seed}:departures")
        depths = [0] * n_replicas
        peak = 0
        for ordinal in range(n_steps):
            choice = policy.choose(ordinal, tuple(depths), seed=seed)
            depths[choice] += 1
            peak = max(peak, max(depths))
            # Adversarial drain: empty a random replica's slot 80% of the
            # time, so load-blind placement accumulates skew.
            if departures.random() < 0.8:
                victim = departures.randrange(n_replicas)
                if depths[victim] > 0:
                    depths[victim] -= 1
        return peak

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_two_choices_collapse_the_peak_load_gap(self, seed):
        rr = self._peak_depth("round-robin", seed)
        p2c = self._peak_depth("power-of-two", seed)
        ll = self._peak_depth("least-loaded", seed)
        assert p2c <= rr, f"seed {seed}: p2c peak {p2c} > round-robin {rr}"
        assert ll <= p2c, f"seed {seed}: least-loaded peak {ll} > p2c {p2c}"
