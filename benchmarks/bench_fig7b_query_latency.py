"""Figure 7b: latency across query types (WS, VC, VQ, VIQ).

Shape to reproduce: WS << VC < VQ <= VIQ, with QA the dominant service.
The ordering is asserted on medians of five warm runs per query, never on
one cold ``perf_counter`` delta (ROADMAP: "Upkeep: stale prose, and green
on any box").
"""

import statistics

import pytest

from repro.analysis import format_table
from repro.core import QueryType
from repro.datacenter import measure_web_search_latency
from repro.websearch import SearchEngine


def warm_median(pipeline, query, runs=5):
    pipeline.process(query)  # first call pays the cold caches
    return statistics.median(pipeline.process(query).latency for _ in range(runs))


@pytest.fixture(scope="module")
def per_type_latencies(pipeline, inputs):
    """Per query type, each query's median latency over five warm runs."""
    return {
        query_type.value: [
            warm_median(pipeline, query) for query in inputs.by_type(query_type)
        ]
        for query_type in QueryType
    }


def test_fig7b_report(per_type_latencies, save_report):
    engine = SearchEngine.with_default_corpus()
    ws = measure_web_search_latency(engine, ["capital of italy", "nile river"])
    rows = [["WS", f"{ws * 1000:.2f}", "-"]]
    for name, samples in per_type_latencies.items():
        median = statistics.median(samples)
        spread = max(samples) / max(min(samples), 1e-9)
        rows.append([name, f"{median * 1000:.2f}", f"{spread:.1f}x"])
    report = format_table(
        "Figure 7b: Median warm latency across query types",
        ["Query type", "Median latency (ms)", "Max/min spread"],
        rows,
    )
    save_report("fig7b_query_latency", report)

    vc = statistics.median(per_type_latencies["VC"])
    vq = statistics.median(per_type_latencies["VQ"])
    viq = statistics.median(per_type_latencies["VIQ"])
    # Paper shape: every Sirius type dwarfs WS; VC is the shortest; VIQ the longest.
    assert ws < vc < vq < viq


@pytest.mark.parametrize("query_type", list(QueryType), ids=lambda t: t.value)
def test_bench_query_type(benchmark, pipeline, inputs, query_type):
    queries = inputs.by_type(query_type)
    index = iter(range(10**9))

    def run_next():
        return pipeline.process(queries[next(index) % len(queries)])

    response = benchmark(run_next)
    assert response.query_type == query_type
