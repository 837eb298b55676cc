"""Figure 9: cycle breakdown per service, from the real pipeline's section spans.

Claims to reproduce: scoring (GMM/DNN) dominates ASR; stemmer+regex+CRF
dominate QA; FE/FD dominate IMM; and the suite kernels cover most of the
total compute (the paper extracts 92%).
"""

import pytest

from repro.analysis import (
    format_table,
    kernel_coverage,
    split_by_service,
)
from repro.obs.critical_path import section_seconds


@pytest.fixture(scope="module")
def pooled(traced_spans):
    return section_seconds(traced_spans)


def test_fig9_report(pooled, save_report):
    breakdowns = split_by_service(pooled)
    lines = []
    for service, breakdown in sorted(breakdowns.items()):
        rows = [
            [section, f"{fraction * 100:.1f}%"]
            for section, fraction in breakdown.fractions().items()
        ]
        rows.append(["(kernel share)", f"{breakdown.kernel_fraction() * 100:.1f}%"])
        lines.append(
            format_table(
                f"Figure 9 — {service} cycle breakdown", ["Component", "Share"], rows
            )
        )
    coverage = kernel_coverage(pooled)
    lines.append(f"Sirius Suite kernels cover {coverage * 100:.1f}% of profiled time "
                 f"(paper: 92%)")
    save_report("fig9_cycle_breakdown", "\n\n".join(lines))

    asr = breakdowns["ASR"]
    imm = breakdowns["IMM"]
    qa = breakdowns["QA"]
    # Scoring dominates ASR's accelerable time; FE+FD dominate IMM.
    assert asr.fraction("asr.scoring") > asr.fraction("asr.features")
    assert imm.fraction("imm.fe") + imm.fraction("imm.fd") > 0.5
    # The NLP trio is the bulk of QA (paper: ~85%).
    nlp = qa.fraction("qa.stemmer") + qa.fraction("qa.regex") + qa.fraction("qa.crf")
    assert nlp > 0.5


def test_kernel_coverage_majority(pooled):
    assert kernel_coverage(pooled) > 0.5


def test_bench_section_pooling(benchmark, traced_spans):
    pooled = benchmark(section_seconds, traced_spans)
    assert sum(pooled.values()) > 0
