"""Serving-layer throughput: whole-query fan-out vs sequential.

``PlanExecutor.run_all`` runs whole queries in line at one worker and on
a forked pool at more.  This benchmark pits the classic sequential run
against the process fan-out over a VQ-mix workload, and checks that the
fan-out never changes an answer.  The fan-out pays with one BLAS thread
per process (``OPENBLAS_NUM_THREADS=1``, as CI runs it); at OpenBLAS's
default each forked worker's BLAS threads contend for the same cores.

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
    fanout_s, _ = _timed(executor, vq_workload, workers=WORKERS)
    rows = [
        ["sequential", 1, f"{sequential_s:.2f}",
         f"{len(vq_workload) / sequential_s:.2f}", "1.00x"],
        ["fan-out", WORKERS, f"{fanout_s:.2f}",
         f"{len(vq_workload) / fanout_s:.2f}",
         f"{sequential_s / fanout_s:.2f}x"],
    ]
    report = format_table(
        f"Serving throughput: {len(vq_workload)} VQ queries "
        f"(forked fan-out{', smoke' if SMOKE else ''})",
        ["Mode", "Workers", "Seconds", "Queries/s", "Speedup"], rows,
    )
    save_report("serving_throughput", report)


def test_fanout_results_match_sequential(executor, vq_workload):
    _, sequential = _timed(executor, vq_workload)
    _, fanout = _timed(executor, vq_workload, workers=WORKERS)
    assert [r.answer for r in fanout] == [r.answer for r in sequential]
    assert [r.filter_hits for r in fanout] == [r.filter_hits for r in sequential]


def test_bench_fanout_dispatch(benchmark, executor, vq_workload):
    queries = vq_workload[: max(4, N_QUERIES // 4)]
    responses = benchmark(executor.run_all, queries, workers=WORKERS)
    assert len(responses) == len(queries)
