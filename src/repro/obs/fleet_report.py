"""The fleet health report: rollups + SLOs + sampling in one dashboard.

``repro fleet-report`` is the operator console for the cluster layer —
the page an on-call would pull up, rendered deterministically from
deterministic inputs so it can also be golden-pinned byte-for-byte.  Two
sources feed it:

- **a virtual-time replay** (:func:`report_from_replay`): the cluster
  replay driver's per-tick rollups, the modeled TTFP series, the
  autoscaler's replica trajectory, and sampling verdicts over the virtual
  outcome stream;
- **a span export** (:func:`report_from_spans`): a timing-stripped JSONL
  forest from ``serve-bench --trace`` or a live cluster run, projected
  onto rollups on the ordinal clock and sampled trace-by-trace.

Sections: overview, per-replica panels, per-stage cost panels, the
autoscaler trajectory, the SLO budget table with firing burn-rate
alerts, and the trace-sampling bill (with its extrapolation to the
million-query hour).  ``--json`` emits the same content as canonical
JSON (sorted keys, 2-space indent, trailing newline) for golden files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.sampling import (
    SamplingStats,
    TraceSampler,
    summarize_forest,
    summarize_outcomes,
)
from repro.obs.slo import (
    BurnRateAlert,
    DEFAULT_ALERTS,
    SLODefinition,
    SLOStatus,
    evaluate_slos,
)
from repro.obs.timeseries import (
    ARRIVALS_METRIC,
    ASSIGNMENTS_METRIC,
    DEPTH_METRIC,
    E2E_METRIC,
    QUERIES_METRIC,
    REJECTED_METRIC,
    RollupSnapshot,
    SERVICE_METRIC,
    STAGE_VIRTUAL_METRIC,
    TTFP_METRIC,
    WAIT_METRIC,
    rollups_from_spans,
)

#: Report schema tag for the ``--json`` output.
SCHEMA = "repro.fleet-report/v1"


@dataclass(frozen=True)
class FleetReport:
    """Everything the dashboard renders, already evaluated."""

    source: str                         #: "replay" or "spans"
    rollups: RollupSnapshot
    slos: Tuple[SLOStatus, ...]
    sampling: SamplingStats
    extrapolated: Optional[SamplingStats]
    #: (tick, active replicas) — replay source only.
    replica_timeline: Tuple[Tuple[int, int], ...] = ()
    #: The cost ledger's panel (:func:`repro.obs.cost.fleet_cost_panel`):
    #: attributed joules/dollars plus, for replays, the priced autoscaler
    #: trajectory.  ``None`` only for reports built before the cost plane.
    cost: Optional[Dict] = None


def report_from_replay(
    result,
    head_rate: float = 0.1,
    top_k: int = 8,
    sample_seed: int = 0,
    trace_seed: int = 0,
    slos: Optional[Sequence[SLODefinition]] = None,
    alerts: Sequence[BurnRateAlert] = DEFAULT_ALERTS,
    target_queries: int = 1_000_000,
) -> FleetReport:
    """Evaluate a :class:`~repro.serving.cluster.replay.ReplayResult`."""
    rollups = result.rollups()
    sampler = TraceSampler(head_rate=head_rate, seed=sample_seed, top_k=top_k)
    summaries = summarize_outcomes(result.outcomes, trace_seed=trace_seed)
    stats = sampler.stats(summaries)
    from repro.obs.cost import fleet_cost_panel, ledger_from_replay

    return FleetReport(
        source="replay",
        rollups=rollups,
        slos=evaluate_slos(rollups, slos, alerts=alerts),
        sampling=stats,
        extrapolated=stats.extrapolate(target_queries) if summaries else None,
        replica_timeline=tuple(result.replica_timeline),
        cost=fleet_cost_panel(
            ledger_from_replay(result),
            replica_timeline=tuple(result.replica_timeline),
            tick_seconds=result.tick_seconds,
        ),
    )


def report_from_spans(
    spans: Sequence,
    window: float = 16.0,
    head_rate: float = 0.1,
    top_k: int = 8,
    sample_seed: int = 0,
    slos: Optional[Sequence[SLODefinition]] = None,
    alerts: Sequence[BurnRateAlert] = DEFAULT_ALERTS,
    target_queries: int = 1_000_000,
) -> FleetReport:
    """Evaluate a span forest (ordinal clock; deterministic fields only)."""
    rollups = rollups_from_spans(spans, window=window)
    sampler = TraceSampler(head_rate=head_rate, seed=sample_seed, top_k=top_k)
    summaries = summarize_forest(spans)
    stats = sampler.stats(summaries)
    from repro.obs.cost import fleet_cost_panel, ledger_from_spans

    return FleetReport(
        source="spans",
        rollups=rollups,
        slos=evaluate_slos(rollups, slos, alerts=alerts),
        sampling=stats,
        extrapolated=stats.extrapolate(target_queries) if summaries else None,
        cost=fleet_cost_panel(ledger_from_spans(spans)),
    )


# -- rendering ----------------------------------------------------------------------

def _overview_rows(report: FleetReport) -> List[List[str]]:
    rollups = report.rollups
    windows = rollups.windows()
    rows = [
        ["source", report.source],
        ["window width", f"{rollups.window_seconds:g}"],
        ["windows", str(len(windows))],
    ]
    arrivals = rollups.counter_total(ARRIVALS_METRIC)
    if arrivals:
        rows.append(["arrivals", str(arrivals)])
    for status in ("ok", "degraded", "failed"):
        count = rollups.counter_total(QUERIES_METRIC, status=status)
        rows.append([f"queries {status}", str(count)])
    rejected = rollups.counter_total(REJECTED_METRIC)
    rows.append(["rejected (admission)", str(rejected)])
    return rows


def _replica_labels(rollups: RollupSnapshot) -> List[str]:
    replicas = set()
    for cell in rollups.counter_cells(ASSIGNMENTS_METRIC):
        replicas.update(
            value for key, value in cell.labels if key == "replica"
        )
    return sorted(replicas, key=lambda r: (len(r), r))


def _replica_rows(report: FleetReport) -> List[List[str]]:
    rollups = report.rollups
    rows = []
    for replica in _replica_labels(rollups):
        assigned = rollups.counter_total(ASSIGNMENTS_METRIC, replica=replica)
        depth = rollups.merged_panel(DEPTH_METRIC, replica=replica)
        rows.append([
            replica,
            str(assigned),
            f"{depth.mean:.2f}" if depth else "-",
            f"{depth.maximum:g}" if depth else "-",
        ])
    return rows


def _stage_rows(report: FleetReport) -> List[List[str]]:
    rollups = report.rollups
    rows = []
    named = [
        ("e2e", E2E_METRIC), ("ttfp", TTFP_METRIC),
        ("router wait", WAIT_METRIC), ("service", SERVICE_METRIC),
    ]
    for label, metric in named:
        panel = rollups.merged_panel(metric)
        if panel is None:
            continue
        rows.append([
            label, str(panel.observed),
            f"{panel.percentile(50.0):.4f}",
            f"{panel.percentile(95.0):.4f}",
            f"{panel.percentile(99.0):.4f}",
        ])
    stages = set()
    for cell in rollups.panel_cells(STAGE_VIRTUAL_METRIC):
        stages.update(value for key, value in cell.labels if key == "stage")
    for stage in sorted(stages):
        panel = rollups.merged_panel(STAGE_VIRTUAL_METRIC, stage=stage)
        rows.append([
            f"stage {stage}", str(panel.observed),
            f"{panel.percentile(50.0):.4f}",
            f"{panel.percentile(95.0):.4f}",
            f"{panel.percentile(99.0):.4f}",
        ])
    return rows


def _timeline_text(timeline: Sequence[Tuple[int, int]]) -> str:
    """The replica trajectory, compressed to its change points."""
    if not timeline:
        return "(no autoscaler ticks)"
    parts = []
    previous = None
    for tick, count in timeline:
        if count != previous:
            parts.append(f"t{tick}:{count}")
            previous = count
    return " -> ".join(parts)


def _slo_rows(report: FleetReport) -> List[List[str]]:
    rows = []
    for status in report.slos:
        slo = status.slo
        target = (
            f"{slo.target:.3%}" if slo.kind == "availability"
            else f"{slo.target:.0%} <= {slo.threshold:g}s"
        )
        rows.append([
            slo.name,
            slo.kind,
            target,
            f"{status.compliance:.5f}",
            f"{status.budget_consumed:.2f}",
            "yes" if status.met else "NO",
            str(len(status.firings)),
        ])
    return rows


def _sampling_rows(report: FleetReport) -> List[List[str]]:
    stats = report.sampling
    reduction = (
        f"{stats.span_reduction:.1f}x"
        if stats.kept_spans else "all dropped"
    )
    rows = [
        ["head rate", f"{stats.head_rate:g}"],
        ["traces kept / total", f"{stats.kept_traces} / {stats.total_traces}"],
        ["spans kept / total", f"{stats.kept_spans} / {stats.total_spans}"],
        ["span reduction", reduction],
    ]
    for reason, count in stats.by_reason:
        rows.append([f"kept: {reason}", str(count)])
    if report.extrapolated is not None:
        extra = report.extrapolated
        rows.append([
            f"@ {extra.total_traces} queries",
            f"{extra.kept_spans} of {extra.total_spans} spans "
            f"({extra.span_reduction:.1f}x reduction)",
        ])
    return rows


def _cost_rows(report: FleetReport) -> List[List[str]]:
    from repro.obs.cost import format_energy

    panel = report.cost
    rows = [
        ["platform", str(panel["platform"])],
        ["attributed energy", format_energy(panel["microjoules"])],
        ["attributed dollars (TCO)", f"${panel['tco_dollars']:.8f}"],
        ["electricity only", f"${panel['electricity_dollars']:.8f}"],
        ["AI tax", format_energy(panel["tax_microjoules"])],
        ["AI tax share", f"{panel['tax_share']:.1%}"],
    ]
    if panel["provisioned_replica_seconds"] is not None:
        rows.append([
            "provisioned replica-seconds",
            f"{panel['provisioned_replica_seconds']:.1f}",
        ])
        rows.append([
            "provisioned energy",
            format_energy(panel["provisioned_microjoules"]),
        ])
        rows.append([
            "provisioned dollars (TCO)",
            f"${panel['provisioned_dollars']:.8f}",
        ])
    return rows


def render_fleet_report(report: FleetReport, max_firings: int = 8) -> str:
    """The deterministic text dashboard."""
    # Imported here, not at module top: repro.analysis pulls in profiling,
    # which imports repro.obs — a top-level import would be circular.
    from repro.analysis import format_table

    sections = [
        format_table("Fleet overview", ["Metric", "Value"],
                     _overview_rows(report))
    ]
    replica_rows = _replica_rows(report)
    if replica_rows:
        sections.append(format_table(
            "Per-replica", ["Replica", "Assigned", "Mean depth", "Max depth"],
            replica_rows,
        ))
    stage_rows = _stage_rows(report)
    if stage_rows:
        sections.append(format_table(
            "Latency panels (virtual seconds)",
            ["Series", "N", "p50", "p95", "p99"],
            stage_rows,
        ))
    if report.replica_timeline:
        sections.append(
            "Autoscaler trajectory (tick:replicas):\n  "
            + _timeline_text(report.replica_timeline)
        )
    if report.slos:
        sections.append(format_table(
            "SLO budgets",
            ["SLO", "Kind", "Target", "Compliance", "Budget burned", "Met",
             "Alerts"],
            _slo_rows(report),
        ))
        firing_lines = []
        for status in report.slos:
            for firing in status.firings[:max_firings]:
                firing_lines.append(
                    f"  [{firing.alert}] {status.slo.name} at window "
                    f"{firing.window}: long {firing.long_burn:.1f}x / "
                    f"short {firing.short_burn:.1f}x budget"
                )
            if len(status.firings) > max_firings:
                firing_lines.append(
                    f"  ... {len(status.firings) - max_firings} more "
                    f"{status.slo.name} firings"
                )
        if firing_lines:
            sections.append("Firing burn-rate alerts:\n" + "\n".join(firing_lines))
        else:
            sections.append("Firing burn-rate alerts: none")
    if report.cost is not None:
        sections.append(format_table(
            "Cost & energy (see repro cost-report)",
            ["Metric", "Value"], _cost_rows(report),
        ))
    sections.append(format_table(
        "Trace sampling", ["Metric", "Value"], _sampling_rows(report)
    ))
    return "\n\n".join(sections) + "\n"


# -- canonical JSON -----------------------------------------------------------------

def _panel_dict(panel) -> Dict:
    return {
        "labels": dict(panel.labels),
        "window": panel.window,
        "observed": panel.observed,
        "min": panel.minimum,
        "max": panel.maximum,
        "mean": panel.mean,
        "p50": panel.percentile(50.0),
        "p95": panel.percentile(95.0),
        "p99": panel.percentile(99.0),
    }


def _stats_dict(stats: SamplingStats) -> Dict:
    return {
        "head_rate": stats.head_rate,
        "seed": stats.seed,
        "top_k": stats.top_k,
        "total_traces": stats.total_traces,
        "kept_traces": stats.kept_traces,
        "total_spans": stats.total_spans,
        "kept_spans": stats.kept_spans,
        "span_reduction": (
            stats.span_reduction if stats.kept_spans else None
        ),
        "by_reason": {reason: count for reason, count in stats.by_reason},
    }


def report_to_dict(report: FleetReport) -> Dict:
    """The JSON-ready projection of a report (plain types only)."""
    rollups = report.rollups
    return {
        "schema": SCHEMA,
        "source": report.source,
        "window_seconds": rollups.window_seconds,
        "windows": list(rollups.windows()),
        "counters": [
            {
                "metric": cell.metric,
                "labels": dict(cell.labels),
                "window": cell.window,
                "value": cell.value,
            }
            for cell in rollups.counters
        ],
        "panels": {
            metric: [
                _panel_dict(cell) for cell in rollups.panel_cells(metric)
            ]
            for metric in rollups.metrics()
            if rollups.panel_cells(metric)
        },
        "replica_timeline": [list(pair) for pair in report.replica_timeline],
        "slos": [
            {
                "name": status.slo.name,
                "kind": status.slo.kind,
                "target": status.slo.target,
                "threshold": status.slo.threshold,
                "good": status.good,
                "bad": status.bad,
                "compliance": status.compliance,
                "budget_consumed": status.budget_consumed,
                "met": status.met,
                "firings": [
                    {
                        "alert": firing.alert,
                        "window": firing.window,
                        "long_burn": firing.long_burn,
                        "short_burn": firing.short_burn,
                    }
                    for firing in status.firings
                ],
            }
            for status in report.slos
        ],
        "sampling": _stats_dict(report.sampling),
        "extrapolated": (
            _stats_dict(report.extrapolated)
            if report.extrapolated is not None else None
        ),
        "cost": dict(report.cost) if report.cost is not None else None,
    }


def report_to_json(report: FleetReport) -> str:
    """Canonical JSON (sorted keys, 2-space indent, trailing newline)."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
