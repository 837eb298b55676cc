"""Text reporting over span exports: waterfalls and percentile summaries.

``repro trace-report`` renders two views of a span forest:

- a **per-query waterfall** — the span tree, indented, with measured
  durations, retry/fault annotations, and error codes, i.e. Figure 8's
  "where did this query's time go" at a glance;
- a **per-series latency summary** — count, mean, and exact
  p50/p95/p99 over the recorded service spans plus the end-to-end query
  spans, the numbers the M/M/1 comparison (Figure 17 bridge) consumes.

The percentile math lives in :mod:`repro.obs.metrics` (exact,
numpy-compatible interpolation over raw samples) and the series in a
:class:`~repro.obs.timeseries.RollupStore`; this module only projects
spans onto one, reads its snapshot, and formats text.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.datacenter.arrivals import PoissonProcess
from repro.datacenter.queueing import mm1_percentile
from repro.datacenter.simulation import histogram_sampler
from repro.obs.timeseries import (
    E2E_METRIC,
    PARTIALS_METRIC,
    QUERIES_METRIC,
    SERVICE_METRIC,
    TTFP_METRIC,
    WAIT_METRIC,
    RollupPanel,
    RollupSnapshot,
    RollupStore,
    format_series,
)
from repro.obs.trace import (
    ATTEMPT,
    PARTIAL,
    QUERY,
    SECTION,
    SERVICE,
    Span,
    query_outcome,
    sort_key,
)

#: Attributes surfaced inline in the waterfall, in display order.
_WATERFALL_ATTRIBUTES = (
    "attempts", "virtual_seconds", "fault.kind", "fault.code",
    "breaker", "rejected", "wasted", "degraded", "failed", "query_type",
    "partial_index", "chars", "chunks", "endpointed",
)


def metrics_from_spans(
    spans: Sequence[Span],
    store: Optional[RollupStore] = None,
) -> RollupStore:
    """Record a span forest's *measured* latencies on the ordinal clock.

    Query spans feed ``serve.e2e.seconds`` and ``serve.queries{status}``;
    service spans feed ``serve.service.seconds{stage}`` and, where a wait
    was recorded, ``serve.wait.seconds{stage}``.  Each trace's *first*
    partial span yields one time-to-first-partial sample (partial end
    minus the query root's start).  Attempt/section spans are structure,
    not samples — retries would double-count their stage.
    """
    store = store if store is not None else RollupStore()
    query_starts: Dict[str, Tuple[float, float]] = {}
    first_partial: Dict[str, float] = {}
    for span in spans:
        t = float(span.ordinal)
        if span.kind == QUERY:
            store.observe(E2E_METRIC, t, span.duration)
            query_starts[span.trace_id] = (span.start, t)
            store.inc(QUERIES_METRIC, t, status=query_outcome(span))
        elif span.kind == SERVICE:
            stage = span.service or span.name
            store.observe(SERVICE_METRIC, t, span.duration, stage=stage)
            if span.wait:
                store.observe(WAIT_METRIC, t, span.wait, stage=stage)
        elif span.kind == PARTIAL:
            store.inc(PARTIALS_METRIC, t)
            trace = span.trace_id
            if trace not in first_partial or span.end < first_partial[trace]:
                first_partial[trace] = span.end
    for trace, emitted in sorted(first_partial.items()):
        if trace in query_starts:
            start, t = query_starts[trace]
            if emitted > start:
                store.observe(TTFP_METRIC, t, emitted - start)
    return store


def _children_by_parent(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    children: Dict[str, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    return children


def _span_line(span: Span, depth: int) -> str:
    name = span.name if not span.service else f"{span.name} [{span.service}]"
    parts = [f"{'  ' * depth}{name:<{max(28 - 2 * depth, 8)}}"
             f"{span.duration * 1000:9.2f} ms"]
    if span.wait:
        parts.append(f"wait {span.wait * 1000:.2f} ms")
    for key in _WATERFALL_ATTRIBUTES:
        if key in span.attributes:
            parts.append(f"{key.split('.')[-1]}={span.attributes[key]}")
    if span.status != "ok":
        parts.append(f"ERROR[{span.error_code or 'SIRIUS'}]")
    return "  ".join(parts)


def format_waterfall(spans: Sequence[Span], limit: int = 0) -> str:
    """The per-query waterfall: one indented span tree per trace.

    ``limit`` caps the number of queries rendered (0 = all); the summary
    tables always cover every span regardless.
    """
    ordered = sorted(spans, key=sort_key)
    children = _children_by_parent(ordered)
    roots = sorted((s for s in ordered if not s.parent_id),
                   key=lambda s: (s.ordinal, s.trace_id))
    if limit:
        roots = roots[:limit]
    lines: List[str] = []
    for root in roots:
        lines.append(f"query #{root.ordinal}  trace={root.trace_id}")
        stack: List[Tuple[Span, int]] = [(root, 0)]
        while stack:
            span, depth = stack.pop()
            lines.append(_span_line(span, depth))
            for child in reversed(children.get(span.span_id, ())):
                stack.append((child, depth + 1))
        lines.append("")
    if not roots:
        lines.append("(no root spans in export)")
    return "\n".join(lines).rstrip()


def _series_panels(snapshot: RollupSnapshot) -> List[Tuple[str, RollupPanel]]:
    """``(metric{labels}, panel folded over all windows)`` per series."""
    return [
        (format_series(metric, labels),
         snapshot.merged_panel(metric, **dict(labels)))
        for metric, labels in snapshot.panel_series()
    ]


def summary_rows(snapshot: RollupSnapshot) -> List[List[str]]:
    """Per-series summary rows: count, mean, p50/p95/p99 (milliseconds)."""
    return [
        [
            name,
            str(panel.observed),
            f"{panel.mean * 1000:.2f}",
            f"{panel.percentile(50) * 1000:.2f}",
            f"{panel.percentile(95) * 1000:.2f}",
            f"{panel.percentile(99) * 1000:.2f}",
        ]
        for name, panel in _series_panels(snapshot)
    ]


def format_service_summary(store: RollupStore, title: str = "Latency summary") -> str:
    """The per-series latency table (count / mean / p50 / p95 / p99)."""
    # Imported lazily: repro.analysis pulls in repro.profiling, which sits
    # *below* the obs layer in the import graph (profiling consults the
    # ambient trace context), so a module-level import would be circular.
    from repro.analysis import format_table

    snapshot = store.snapshot()
    rows = summary_rows(snapshot)
    if not rows:
        return f"{title}\n(no latency samples recorded)"
    counts = {
        status: snapshot.counter_total(QUERIES_METRIC, status=status)
        for status in ("ok", "degraded", "failed")
    }
    counts["partials"] = snapshot.counter_total(PARTIALS_METRIC)
    table = format_table(
        title,
        ["Series", "Count", "Mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        rows,
    )
    outcome = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v)
    if outcome:
        table += f"\noutcomes: {outcome}"
    return table


def format_mm1_comparison(
    store: RollupStore,
    load: float,
    seed: int = 7,
    title: str = "Measured vs M/M/1 prediction",
) -> str:
    """Empirical-distribution queueing vs the analytic M/M/1 model (Fig 17).

    For each latency series with samples, replays Poisson arrivals through
    one replica at utilization ``load`` drawing service times from the
    *measured* distribution, and prints its p95/p99 next to the M/M/1
    prediction parameterized by the measured mean — the Figure 8/17 bridge.
    """
    from repro.analysis import format_table
    # Imported here: the serving layer imports this package.
    from repro.serving.cluster.replay import replay_cluster

    rows: List[List[str]] = []
    for name, panel in _series_panels(store.snapshot()):
        mean = panel.mean
        if panel.observed < 2 or mean <= 0:
            continue
        result = replay_cluster(
            PoissonProcess(load / mean),
            histogram_sampler(panel, seed=seed + 1),
            2000,
            seed=seed,
        )
        rows.append([
            name,
            f"{result.p95_response * 1000:.2f}",
            f"{mm1_percentile(mean, load, 95) * 1000:.2f}",
            f"{result.p99_response * 1000:.2f}",
            f"{mm1_percentile(mean, load, 99) * 1000:.2f}",
        ])
    if not rows:
        return f"{title}\n(no series with enough samples)"
    return format_table(
        f"{title} (load={load:.2f})",
        ["Series", "sim p95 (ms)", "M/M/1 p95 (ms)",
         "sim p99 (ms)", "M/M/1 p99 (ms)"],
        rows,
    )


def format_roofline(spans: Sequence[Span]) -> str:
    """Place each traced Sirius Suite kernel on the roofline model.

    Uses the work counters on ``kernel`` spans (``repro bench`` /
    :meth:`repro.suite.base.Kernel.execute` under a tracer): measured
    operational intensity = counter flops / counter bytes, placed on
    :mod:`repro.platforms.roofline` next to the analytic profile, with the
    attainable GFLOP/s and binding roof per platform.
    """
    from repro.analysis import format_table
    from repro.obs.counters import format_count, kernel_counters
    from repro.platforms.roofline import (
        KERNEL_PROFILES,
        attainable_for_intensity,
        bound_regime,
    )
    from repro.platforms.spec import CMP, FPGA, GPU

    grouped = kernel_counters(spans)
    rows: List[List[str]] = []
    for name in sorted(grouped):
        counters = grouped[name]
        if not counters.flops or not counters.bytes:
            continue
        intensity = counters.intensity
        profile = KERNEL_PROFILES.get(name)
        friendliness = profile.simd_friendliness if profile else 1.0
        model = f"{profile.operational_intensity:.2f}" if profile else "-"
        rows.append([
            name,
            format_count(counters.flops),
            format_count(counters.bytes),
            f"{intensity:.2f}",
            model,
            f"{attainable_for_intensity(intensity, CMP, friendliness):.1f}",
            f"{attainable_for_intensity(intensity, GPU, friendliness):.1f}",
            f"{attainable_for_intensity(intensity, FPGA, friendliness):.1f}",
            bound_regime(intensity, GPU, friendliness),
        ])
    if not rows:
        return ("Roofline placement\n(no kernel spans with flops/bytes "
                "counters in this export)")
    return format_table(
        "Roofline placement (measured intensity from span counters)",
        ["Kernel", "Flops", "Bytes", "F/B", "Model F/B",
         "CMP GF/s", "GPU GF/s", "FPGA GF/s", "GPU roof"],
        rows,
    )


def format_wasted_work(spans: Sequence[Span]) -> str:
    """Served vs wasted work counters, per service/kernel key.

    Splits :func:`repro.obs.counters.counters_by_key` along the
    :func:`repro.obs.counters.wasted_span_ids` verdicts — retried tries,
    breaker fast-fails, and everything under failed queries — so discarded
    flops show up as their own line instead of blending into served
    totals.  Empty string when nothing was wasted (no section rendered).
    """
    from repro.analysis import format_table
    from repro.obs.counters import (
        WorkCounters,
        format_count,
        split_wasted_counters,
        wasted_span_ids,
    )

    materialized = list(spans)
    wasted_ids = wasted_span_ids(materialized)
    if not wasted_ids:
        return ""
    served, wasted = split_wasted_counters(materialized)
    span_counts: Dict[str, int] = {}
    for span in materialized:
        if span.span_id in wasted_ids:
            key = span.service or span.name
            span_counts[key] = span_counts.get(key, 0) + 1
    rows: List[List[str]] = []
    for key in sorted(span_counts):
        kept = served.get(key, WorkCounters())
        lost = wasted.get(key, WorkCounters())
        total_flops = kept.flops + lost.flops
        share = lost.flops / total_flops if total_flops else 0.0
        rows.append([
            key,
            str(span_counts[key]),
            format_count(kept.flops),
            format_count(lost.flops),
            f"{share:.1%}" if total_flops else "-",
        ])
    return format_table(
        "Wasted work (retries, fast-fails, failed queries)",
        ["Key", "Wasted spans", "Served flops", "Wasted flops",
         "Wasted flop share"],
        rows,
    )


def render_report(
    spans: Sequence[Span],
    limit: int = 0,
    mm1_load: Optional[float] = None,
) -> str:
    """The full ``repro trace-report`` text: waterfall + summaries."""
    store = metrics_from_spans(spans)
    sections = [
        format_waterfall(spans, limit=limit),
        format_service_summary(store, title="Per-service latency (from spans)"),
        format_wasted_work(spans),
    ]
    if mm1_load is not None:
        sections.append(format_mm1_comparison(store, load=mm1_load))
    counts = {ATTEMPT: 0, SECTION: 0, SERVICE: 0, QUERY: 0, PARTIAL: 0}
    for span in spans:
        counts[span.kind] = counts.get(span.kind, 0) + 1
    summary = (
        f"{len(spans)} spans: {counts.get(QUERY, 0)} queries, "
        f"{counts.get(SERVICE, 0)} service calls, "
        f"{counts.get(ATTEMPT, 0)} attempts, {counts.get(SECTION, 0)} sections"
    )
    if counts.get(PARTIAL, 0):
        summary += f", {counts[PARTIAL]} partials"
    sections.append(summary)
    return "\n\n".join(section for section in sections if section)
