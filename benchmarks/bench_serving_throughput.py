"""Serving-layer throughput: whole-query fan-out vs sequential.

``PlanExecutor.run_all`` maps whole queries over an execution backend.
This benchmark pits the classic sequential run (the ``serial``
backend) against fan-out on the thread and process backends over a VQ-mix
workload, and checks that the backend never changes an answer.

Smoke mode (``SIRIUS_BENCH_SMOKE=1``, used by CI) shrinks the workload so
the comparison stays cheap enough to gate every push.
"""

import os
import time

import pytest

from repro.analysis import format_table
from repro.core import QueryType

SMOKE = bool(os.environ.get("SIRIUS_BENCH_SMOKE"))
N_QUERIES = 8 if SMOKE else 32
WORKERS = min(os.cpu_count() or 1, 4)


@pytest.fixture(scope="module")
def executor(pipeline):
    executor = pipeline.serving
    executor.warmup()
    return executor


@pytest.fixture(scope="module")
def vq_workload(inputs):
    base = inputs.by_type(QueryType.VOICE_QUERY)
    return [base[i % len(base)] for i in range(N_QUERIES)]


def _timed(executor, queries, **kwargs):
    start = time.perf_counter()
    responses = executor.run_all(queries, **kwargs)
    return time.perf_counter() - start, responses


def test_fanout_vs_sequential_report(executor, vq_workload, save_report):
    sequential_s, _ = _timed(executor, vq_workload)
    rows = [["sequential", "serial", f"{sequential_s:.2f}",
             f"{len(vq_workload) / sequential_s:.2f}", "1.00x"]]
    for backend in ("thread", "process"):
        fanout_s, _ = _timed(
            executor, vq_workload, backend=backend, workers=WORKERS
        )
        rows.append(
            ["fan-out", backend, f"{fanout_s:.2f}",
             f"{len(vq_workload) / fanout_s:.2f}",
             f"{sequential_s / fanout_s:.2f}x"]
        )
    report = format_table(
        f"Serving throughput: {len(vq_workload)} VQ queries "
        f"({WORKERS} workers{', smoke' if SMOKE else ''})",
        ["Mode", "Backend", "Seconds", "Queries/s", "Speedup"], rows,
    )
    save_report("serving_throughput", report)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_fanout_results_match_sequential(executor, vq_workload, backend):
    _, sequential = _timed(executor, vq_workload)
    _, fanout = _timed(executor, vq_workload, backend=backend, workers=WORKERS)
    assert [r.answer for r in fanout] == [r.answer for r in sequential]
    assert [r.filter_hits for r in fanout] == [r.filter_hits for r in sequential]


def test_bench_fanout_dispatch(benchmark, executor, vq_workload):
    queries = vq_workload[: max(4, N_QUERIES // 4)]
    responses = benchmark(
        executor.run_all, queries, backend="thread", workers=WORKERS
    )
    assert len(responses) == len(queries)
