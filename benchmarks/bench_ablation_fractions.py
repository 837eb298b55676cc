"""Ablation: paper-default vs *measured* component fractions.

The accelerator model composes Table 5 kernel speedups through per-service
component-time fractions.  The paper's fractions come from its Figure 9
profile; ours differ (Python vectorizes scoring but interprets the Viterbi
loop).  This bench quantifies how much that choice moves the service-level
speedups — i.e. how sensitive the paper's conclusions are to the cycle
breakdown.
"""

import pytest

from repro.analysis import format_matrix, measured_service_fractions
from repro.obs.critical_path import section_seconds
from repro.platforms import (
    DEFAULT_FRACTIONS,
    FPGA,
    GPU,
    PLATFORMS,
    SERVICES,
    service_speedup,
    service_speedup_table,
)


@pytest.fixture(scope="module")
def measured_fractions(traced_spans):
    return measured_service_fractions(section_seconds(traced_spans))


def test_ablation_report(measured_fractions, save_report):
    paper_table = service_speedup_table()
    measured_table = service_speedup_table(measured_fractions)
    report = "\n\n".join(
        [
            format_matrix(
                "Service speedups with PAPER fractions (Figure 9 of the paper)",
                "Service", paper_table, columns=list(PLATFORMS),
            ),
            format_matrix(
                "Service speedups with MEASURED fractions (our Python profile)",
                "Service", measured_table, columns=list(PLATFORMS),
            ),
        ]
    )
    save_report("ablation_fractions", report)


def test_conclusions_robust_to_fractions(measured_fractions):
    """The paper's winners survive the fraction swap."""
    for service in SERVICES:
        paper_best = max(
            PLATFORMS, key=lambda p: service_speedup(service, p)
        )
        measured_best = max(
            PLATFORMS, key=lambda p: service_speedup(service, p, measured_fractions)
        )
        # FPGA/GPU remain the only winners under either breakdown.
        assert paper_best in (GPU, FPGA)
        assert measured_best in (GPU, FPGA)


def test_measured_fractions_shrink_asr_speedup(measured_fractions):
    # Our ASR is search-dominated, so accelerating scoring buys less.
    paper = service_speedup("ASR (GMM)", FPGA)
    measured = service_speedup("ASR (GMM)", FPGA, measured_fractions)
    assert measured < paper


def test_bench_fraction_extraction(benchmark, traced_spans):
    def extract():
        return measured_service_fractions(section_seconds(traced_spans))

    fractions = benchmark(extract)
    assert "QA" in fractions
