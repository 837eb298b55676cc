"""Analysis tools: cycle breakdowns, bottleneck model, variability, reports."""

from repro.analysis.bottleneck import (
    CYCLE_ACCOUNTS,
    CycleAccount,
    ISSUE_WIDTH,
    account,
    bottleneck_rows,
    ipc_table,
    max_stall_free_speedup,
)
from repro.analysis.breakdown import (
    KERNEL_SECTIONS,
    SERVICE_SECTIONS,
    ServiceBreakdown,
    kernel_coverage,
    measured_service_fractions,
    split_by_service,
)
from repro.analysis.report import format_bar, format_matrix, format_table
from repro.analysis.variability import (
    Distribution,
    QAQueryRecord,
    latency_hits_correlation,
    pearson,
    run_variability_study,
    service_distributions,
)

__all__ = [
    "CYCLE_ACCOUNTS",
    "CycleAccount",
    "Distribution",
    "ISSUE_WIDTH",
    "KERNEL_SECTIONS",
    "QAQueryRecord",
    "SERVICE_SECTIONS",
    "ServiceBreakdown",
    "account",
    "bottleneck_rows",
    "format_bar",
    "format_matrix",
    "format_table",
    "ipc_table",
    "kernel_coverage",
    "latency_hits_correlation",
    "max_stall_free_speedup",
    "measured_service_fractions",
    "pearson",
    "run_variability_study",
    "service_distributions",
]
