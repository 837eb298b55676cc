"""Figure 1 / Figure 7a: the scalability gap.

Measures the average Web Search query latency and the average Sirius query
latency on this machine (each the best of five warm passes), derives the
machine-scaling factor, and prints the resource-scaling curve.  The paper's numbers (91 ms vs 15 s → 165x) are
shown alongside for comparison.
"""

import pytest

from repro.analysis import format_table
from repro.datacenter import (
    ScalabilityGap,
    measure_sirius_latency,
    measure_web_search_latency,
    paper_gap,
)
from repro.websearch import SearchEngine

WS_QUERIES = [
    "capital of italy",
    "author harry potter",
    "height mount everest",
    "president united states",
    "telephone inventor",
]


@pytest.fixture(scope="module")
def search_engine():
    return SearchEngine.with_default_corpus()


@pytest.fixture(scope="module")
def measured_gap(search_engine, pipeline, inputs):
    ws = measure_web_search_latency(search_engine, WS_QUERIES)
    sirius = measure_sirius_latency(pipeline, inputs.all_queries)
    return ScalabilityGap(web_search_latency=ws, ipa_latency=sirius)


def test_fig7a_report(measured_gap, save_report):
    reference = paper_gap()
    rows = [
        ["Web Search latency (ms)", f"{1e3 * measured_gap.web_search_latency:.3f}",
         f"{1e3 * reference.web_search_latency:.0f}"],
        ["Sirius query latency (ms)", f"{1e3 * measured_gap.ipa_latency:.2f}",
         f"{1e3 * reference.ipa_latency:.0f}"],
        ["Scalability gap (x)", f"{measured_gap.gap:.0f}", f"{reference.gap:.0f}"],
    ]
    scaling_rows = [
        [f"{ratio:g}x", f"{measured_gap.machines_ratio(ratio):.0f}x",
         f"{reference.machines_ratio(ratio):.0f}x"]
        for ratio in (0.01, 0.1, 1.0)
    ]
    report = "\n\n".join(
        [
            format_table(
                "Figure 7a (left): IPA vs Web Search query latency",
                ["Metric", "Measured", "Paper"], rows,
            ),
            format_table(
                "Figure 7a (right): datacenter scaling vs IPA query share",
                ["IPA:WS query ratio", "Measured machines", "Paper machines"],
                scaling_rows,
            ),
        ]
    )
    save_report("fig7a_scalability_gap", report)
    # Shape check: Sirius queries are orders of magnitude above Web Search.
    assert measured_gap.gap > 20


def test_bench_web_search_query(benchmark, search_engine):
    results = benchmark(search_engine.search, WS_QUERIES[0])
    assert results


def test_bench_sirius_query(benchmark, pipeline, inputs):
    response = benchmark(pipeline.process, inputs.voice_queries[1])
    assert response.transcript
