"""Chaos serving: availability and goodput under seeded fault injection.

The resilience layer's value proposition is quantitative: with deadlines,
retries, and graceful degradation in place, a fault storm that would abort
an unguarded stream instead costs a measurable slice of goodput while
availability stays high.  This benchmark runs the canonical chaos plan
(the same one behind ``repro serve-bench --chaos``) over a mixed workload
and reports the outcome split, then locks down the two determinism
contracts from the issue: the same seed replays byte-identically, and a
zero-fault resilient stream matches the plain sequential reference.

Smoke mode (``SIRIUS_BENCH_SMOKE=1``, used by CI) shrinks the workload.
"""

import os
import time

import pytest

from repro.analysis import format_table
from repro.serving import (
    default_chaos_plan,
    default_policies,
    resilient_executor,
)
from repro.serving.identity import outcome_counts, outcome_fingerprint

SMOKE = bool(os.environ.get("SIRIUS_BENCH_SMOKE"))
N_QUERIES = 12 if SMOKE else 48
CHAOS_SEED = 42


@pytest.fixture(scope="module")
def workload(inputs):
    base = inputs.all_queries
    return [base[i % len(base)] for i in range(N_QUERIES)]


def _chaos_run(pipeline, workload, seed):
    """One fresh resilient wrap + full stream run (fresh breaker state)."""
    executor = resilient_executor(
        pipeline.serving, default_policies(seed=seed), default_chaos_plan(seed)
    )
    executor.warmup()
    start = time.perf_counter()
    responses = executor.run_all(workload, on_error="degrade")
    return time.perf_counter() - start, responses


def test_chaos_availability_report(pipeline, workload, save_report):
    seconds, responses = _chaos_run(pipeline, workload, CHAOS_SEED)
    n = len(responses)
    n_ok, n_degraded, n_failed = outcome_counts(responses)
    rows = [
        ["ok (full quality)", str(n_ok), f"{n_ok / n:.3f}"],
        ["degraded", str(n_degraded), f"{n_degraded / n:.3f}"],
        ["failed", str(n_failed), f"{n_failed / n:.3f}"],
        ["available", str(n_ok + n_degraded), f"{(n_ok + n_degraded) / n:.3f}"],
    ]
    report = format_table(
        f"Chaos serving: seed={CHAOS_SEED}, {n} queries, "
        f"{seconds:.2f}s{' (smoke)' if SMOKE else ''}",
        ["Outcome", "Queries", "Fraction"], rows,
    )
    save_report("chaos_serving", report)
    # The default plan must actually exercise failure paths ...
    assert n_degraded + n_failed > 0
    # ... while the resilient stream keeps serving.
    assert n_ok + n_degraded > 0


def test_chaos_replay_is_deterministic(pipeline, workload):
    """Identical seed + fresh wrap => byte-identical outcome stream."""
    _, first = _chaos_run(pipeline, workload, CHAOS_SEED)
    _, second = _chaos_run(pipeline, workload, CHAOS_SEED)
    assert outcome_fingerprint(first) == outcome_fingerprint(second)


def test_zero_fault_resilience_matches_reference(pipeline, workload):
    """With no fault plan, the resilient pipeline is a pure pass-through:
    responses match the plain sequential reference byte for byte."""
    reference = pipeline.serving.run_all(workload)
    executor = resilient_executor(pipeline.serving, default_policies())
    executor.warmup()
    guarded = executor.run_all(workload, on_error="degrade")
    assert outcome_fingerprint(guarded) == outcome_fingerprint(reference)
    assert not any(r.degraded for r in guarded)


def test_bench_chaos_stream(benchmark, pipeline, workload):
    queries = workload[: max(4, N_QUERIES // 4)]
    executor = resilient_executor(
        pipeline.serving, default_policies(seed=CHAOS_SEED),
        default_chaos_plan(CHAOS_SEED),
    )
    executor.warmup()
    responses = benchmark(executor.run_all, queries, on_error="degrade")
    assert len(responses) == len(queries)
