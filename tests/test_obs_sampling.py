"""Deterministic trace sampling: purity, retention, and the bill.

The sampler's contract has three legs, each pinned here:

- **purity**: a verdict is a pure function of ``(seed, trace_id)`` plus
  the trace's own deterministic summary — never of backend, arrival
  order, or what else is in the batch (the slowest-``k`` reservoir is
  the one deliberate exception, and it is order-independent too);
- **retention**: every error, deadline, breaker-open, and degraded
  trace is kept at any head rate — the interesting traces always reach
  the operator;
- **the bill**: at the million-query extrapolation the sampler cuts
  span volume by at least 10x while retaining 100% of the above (the
  acceptance criterion for the telemetry plane).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.obs.sampling import (
    KEEP_BREAKER,
    KEEP_DEADLINE,
    KEEP_DEGRADED,
    KEEP_ERROR,
    KEEP_HEAD,
    KEEP_SLOW,
    TraceSampler,
    TraceSummary,
    head_decision,
    head_score,
    summarize_forest,
    summarize_outcomes,
)

BACKENDS = ("serial", "thread", "process")


def make_summary(
    trace_id,
    ordinal=0,
    n_spans=3,
    latency=0.1,
    errored=False,
    degraded=False,
    deadline=False,
    breaker_open=False,
):
    return TraceSummary(
        trace_id=trace_id, ordinal=ordinal, n_spans=n_spans, latency=latency,
        errored=errored, degraded=degraded, deadline=deadline,
        breaker_open=breaker_open,
    )


# ---------------------------------------------------------------------------
# Head sampling purity
# ---------------------------------------------------------------------------


class TestHeadSampling:
    def test_score_is_pure_and_uniform_ish(self):
        scores = [head_score(0, f"trace-{i}") for i in range(2_000)]
        assert scores == [head_score(0, f"trace-{i}") for i in range(2_000)]
        assert all(0.0 <= s < 1.0 for s in scores)
        in_head = sum(1 for s in scores if s < 0.1)
        assert 120 <= in_head <= 280  # ~10% +/- sampling noise

    def test_seed_changes_the_sample(self):
        ids = [f"trace-{i}" for i in range(500)]
        kept0 = {t for t in ids if head_decision(0, t, 0.1)}
        kept1 = {t for t in ids if head_decision(1, t, 0.1)}
        assert kept0 != kept1

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        trace_id=st.text(alphabet="0123456789abcdef", min_size=1, max_size=32),
        rate=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_decision_pure_in_seed_and_trace_id(self, seed, trace_id, rate):
        first = head_decision(seed, trace_id, rate)
        assert first == head_decision(seed, trace_id, rate)
        # monotone in the rate: raising the rate never drops a kept trace
        assert not first or head_decision(seed, trace_id, min(1.0, rate + 0.1))


# ---------------------------------------------------------------------------
# Tail rules and retention
# ---------------------------------------------------------------------------


class TestTailRules:
    def test_rule_priority_order(self):
        sampler = TraceSampler(head_rate=0.0, seed=0, top_k=0)
        flagged = make_summary(
            "t0", errored=True, deadline=True, breaker_open=True, degraded=True
        )
        (verdict,) = sampler.verdicts([flagged])
        assert verdict.kept and verdict.reason == KEEP_ERROR
        (verdict,) = sampler.verdicts(
            [make_summary("t1", deadline=True, breaker_open=True)]
        )
        assert verdict.reason == KEEP_DEADLINE
        (verdict,) = sampler.verdicts([make_summary("t2", breaker_open=True)])
        assert verdict.reason == KEEP_BREAKER
        (verdict,) = sampler.verdicts([make_summary("t3", degraded=True)])
        assert verdict.reason == KEEP_DEGRADED

    def test_always_keep_rules_ignore_head_rate(self):
        sampler = TraceSampler(head_rate=0.0, seed=0, top_k=0)
        summaries = [
            make_summary(f"t{i}", ordinal=i,
                         errored=(i % 3 == 0),
                         degraded=(i % 3 == 1),
                         deadline=(i % 3 == 2))
            for i in range(60)
        ]
        verdicts = sampler.verdicts(summaries)
        assert all(v.kept for v in verdicts)

    def test_slowest_reservoir_is_order_independent(self):
        rng = random.Random(3)
        summaries = [
            make_summary(f"t{i}", ordinal=i, latency=rng.random())
            for i in range(100)
        ]
        sampler = TraceSampler(head_rate=0.0, seed=0, top_k=5)
        baseline = {
            v.trace_id: (v.kept, v.reason)
            for v in sampler.verdicts(summaries)
        }
        assert sum(1 for kept, _ in baseline.values() if kept) == 5
        shuffled = list(summaries)
        rng.shuffle(shuffled)
        assert baseline == {
            v.trace_id: (v.kept, v.reason)
            for v in sampler.verdicts(shuffled)
        }

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        n=st.integers(min_value=1, max_value=60),
        head_rate=st.floats(min_value=0.0, max_value=1.0),
        order_seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_verdicts_pure_under_arrival_order(
        self, seed, n, head_rate, order_seed
    ):
        rng = random.Random(seed)
        summaries = [
            make_summary(
                f"t{i:04x}", ordinal=i,
                latency=round(rng.random(), 6),
                errored=rng.random() < 0.1,
                degraded=rng.random() < 0.1,
            )
            for i in range(n)
        ]
        sampler = TraceSampler(head_rate=head_rate, seed=seed, top_k=4)
        baseline = {
            v.trace_id: (v.kept, v.reason)
            for v in sampler.verdicts(summaries)
        }
        shuffled = list(summaries)
        random.Random(order_seed).shuffle(shuffled)
        assert baseline == {
            v.trace_id: (v.kept, v.reason)
            for v in sampler.verdicts(shuffled)
        }
        # retention invariant, at any head rate
        for summary in summaries:
            if summary.errored or summary.degraded or summary.deadline:
                assert baseline[summary.trace_id][0]


# ---------------------------------------------------------------------------
# Cross-backend identity on chaos (live spans)
# ---------------------------------------------------------------------------


class TestCrossBackend:
    def _chaos_spans(self, backend):
        from repro.obs.trace import collect_spans
        from repro.serving import (
            PlanExecutor,
            default_chaos_plan,
            resilient_executor,
        )

        from tests.test_obs import FAST_RETRY, make_query, stub_services

        executor = resilient_executor(
            PlanExecutor(stub_services(), trace_seed=9),
            policies=FAST_RETRY,
            fault_plan=default_chaos_plan(4),
        )
        queries = [make_query(f"query {i}") for i in range(12)]
        responses = executor.run_all(
            queries, backend=backend, on_error="degrade"
        )
        return collect_spans(responses)

    def test_verdicts_identical_across_backends_under_chaos(self):
        sampler = TraceSampler(head_rate=0.2, seed=1, top_k=3)
        verdicts = {
            backend: sampler.verdicts(
                summarize_forest(self._chaos_spans(backend))
            )
            for backend in BACKENDS
        }
        assert (
            verdicts["serial"] == verdicts["thread"] == verdicts["process"]
        )
        # degraded/errored chaos traces all survive
        summaries = summarize_forest(self._chaos_spans("serial"))
        kept = {v.trace_id for v in verdicts["serial"] if v.kept}
        for summary in summaries:
            if summary.errored or summary.degraded or summary.deadline:
                assert summary.trace_id in kept


# ---------------------------------------------------------------------------
# The acceptance bill: >=10x reduction, 100% interesting-trace retention
# ---------------------------------------------------------------------------


class TestAcceptance:
    def _replay_summaries(self):
        from repro.datacenter.arrivals import PoissonProcess
        from repro.datacenter.simulation import exponential_sampler
        from repro.serving.cluster import AdmissionControl, replay_cluster

        # A realistic overload shoulder: ~5% rejects, not a meltdown —
        # the error class must stay small for the 10x bill to be honest.
        result = replay_cluster(
            PoissonProcess(rate=110.0),
            exponential_sampler(0.02, seed=13),
            4_000,
            policy="least-loaded",
            n_replicas=2,
            seed=13,
            admission=AdmissionControl(max_depth=40, seed=13),
        )
        assert result.n_rejected > 0  # the error class is populated
        return summarize_outcomes(result.outcomes, trace_seed=13)

    def test_million_query_bill(self):
        summaries = self._replay_summaries()
        sampler = TraceSampler(head_rate=0.05, seed=0, top_k=8)
        stats = sampler.stats(summaries)
        extrapolated = stats.extrapolate(1_000_000)
        assert extrapolated.total_traces == 1_000_000
        # acceptance: >=10x span reduction at the million-query scale...
        assert extrapolated.span_reduction >= 10.0
        assert stats.span_reduction >= 10.0
        # ...while keeping 100% of error/degraded/deadline traces
        kept = {
            v.trace_id: v for v in sampler.verdicts(summaries) if v.kept
        }
        interesting = [
            s for s in summaries if s.errored or s.degraded or s.deadline
        ]
        assert interesting  # the admission rejects made some
        assert all(s.trace_id in kept for s in interesting)
        assert dict(stats.by_reason)[KEEP_ERROR] == len(
            [s for s in summaries if s.errored]
        )

    def test_stats_reasons_partition_kept(self):
        summaries = self._replay_summaries()
        sampler = TraceSampler(head_rate=0.05, seed=0, top_k=8)
        stats = sampler.stats(summaries)
        assert sum(count for _, count in stats.by_reason) == stats.kept_traces
        reasons = {reason for reason, _ in stats.by_reason}
        assert reasons <= {
            KEEP_ERROR, KEEP_DEADLINE, KEEP_BREAKER, KEEP_DEGRADED,
            KEEP_SLOW, KEEP_HEAD,
        }
