"""Observability overhead: traced vs untraced serving, and a trace report.

Dapper's headline constraint is that tracing must be cheap enough to leave
on; this benchmark checks the repro holds itself to the same bar.  It runs
the same VQ workload through the executor untraced and traced
(``trace_seed`` + a ``RollupStore``), reports the per-query cost of
span recording, and saves the rendered ``trace-report`` for the traced
run so EXPERIMENTS.md can reference a stable waterfall artifact.

Smoke mode (``SIRIUS_BENCH_SMOKE=1``, used by CI) shrinks the workload so
the comparison stays cheap enough to gate every push.
"""

import os
import time

import pytest

from repro.analysis import format_table
from repro.core import QueryType
from repro.obs import E2E_METRIC, RollupStore, collect_spans, render_report

SMOKE = bool(os.environ.get("SIRIUS_BENCH_SMOKE"))
N_QUERIES = 8 if SMOKE else 32
#: Tracing must cost less than this fraction of untraced latency to be
#: "always on" (generous: the noise floor on shared CI boxes is high).
MAX_OVERHEAD = 0.25


@pytest.fixture(scope="module")
def executor(pipeline):
    executor = pipeline.serving
    executor.warmup()
    return executor


@pytest.fixture(scope="module")
def vq_workload(inputs):
    base = inputs.by_type(QueryType.VOICE_QUERY)
    return [base[i % len(base)] for i in range(N_QUERIES)]


def _timed(executor, queries):
    start = time.perf_counter()
    responses = executor.run_all(queries)
    return time.perf_counter() - start, responses


def test_tracing_overhead_report(executor, vq_workload, save_report):
    untraced_s, _ = _timed(executor, vq_workload)

    store = RollupStore()
    executor.trace_seed = 0
    executor.metrics = store
    try:
        traced_s, responses = _timed(executor, vq_workload)
    finally:
        executor.trace_seed = None
        executor.metrics = None

    spans = collect_spans(responses)
    per_query = (traced_s - untraced_s) / len(vq_workload)
    overhead = traced_s / untraced_s - 1.0
    rows = [
        ["untraced", f"{untraced_s:.3f}", "-", "-"],
        ["traced+metrics", f"{traced_s:.3f}",
         f"{len(spans) / len(vq_workload):.1f}",
         f"{overhead * 100:+.1f}%"],
    ]
    report = format_table(
        f"Tracing overhead ({len(vq_workload)} VQ queries, serial)",
        ["run", "seconds", "spans/query", "overhead"], rows,
    )
    report += "\n\n" + render_report(spans, limit=2, mm1_load=0.7)
    save_report("obs_overhead", report)

    assert len(spans) > len(vq_workload)  # root + stage + section spans
    assert store.snapshot().merged_panel(E2E_METRIC).observed == len(vq_workload)
    # Loose sanity bound, not a microbenchmark: recording a few dozen
    # spans must stay far below the cost of running the models.
    assert per_query < 0.05 or overhead < MAX_OVERHEAD


def test_bench_traced_dispatch(benchmark, executor, vq_workload):
    queries = vq_workload[: max(4, N_QUERIES // 4)]
    executor.trace_seed = 0
    try:
        responses = benchmark(executor.run_all, queries)
    finally:
        executor.trace_seed = None
    assert all(r.spans for r in responses)
