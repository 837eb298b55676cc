"""The fleet health report: which SLO is burning, and which traces to keep.

``repro fleet-report`` renders a virtual-time replay
(:func:`report_from_replay`) or a timing-stripped span export on the
ordinal clock (:func:`report_from_spans`) as a deterministic text
dashboard or canonical JSON (sorted keys, 2-space indent, trailing
newline), so it golden-pins byte-for-byte.  It judges either source two
ways:

- **SLOs** (Google SRE workbook, ch. 5): exact good/bad counts per
  rollup window, the error budget ``1 - target`` consumed over the
  horizon, and the :data:`BURN_RATE_ALERTS`, each firing only when the
  budget burns at ``>= factor`` over both its long and its short lookback;
- **trace sampling**, priced at the million-query hour because tracing
  every query is an "AI tax": :func:`sample` keeps a trace with an
  errored span (the one always-keep rule: a deadline, an open breaker, a
  router shed and a degraded or failed root each end a span with their
  error), else one of the ``top_k`` slowest by virtual latency, else one
  whose :func:`head_score` falls under the head rate.  Each verdict is
  pure in the seed and the summaries, so it replays across worker counts,
  arrival orders and chaos.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis import format_table
from repro.errors import ConfigurationError
from repro.obs.cost import (
    fleet_cost_panel,
    format_energy,
    ledger_from_replay,
    ledger_from_spans,
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
from repro.obs.trace import QUERY, Span, trace_id_for

#: Report schema tag for the ``--json`` output.
SCHEMA = "repro.fleet-report/v1"
#: The fleet size the sampling bill is extrapolated to (queries).
TARGET_QUERIES = 1_000_000
#: Burn-rate firings listed per SLO before the rest are counted.
MAX_FIRINGS = 8


# -- SLOs ---------------------------------------------------------------------------

#: SLO kinds.
AVAILABILITY = "availability"
LATENCY = "latency"

#: ``(name, long lookback, short lookback, burn factor)`` in rollup windows: the
#: SRE workbook's page/ticket pairs (1h/5m @ 14.4x, 6h/30m @ 6x), replay-scaled.
BURN_RATE_ALERTS = (("page", 12, 2, 8.0), ("ticket", 36, 6, 2.0))


@dataclass(frozen=True)
class SLODefinition:
    """One objective: a target fraction of good events over the horizon."""

    name: str
    kind: str                 #: AVAILABILITY or LATENCY
    target: float             #: required good fraction, in (0, 1)
    metric: str = QUERIES_METRIC
    threshold: float = 0.0    #: latency bound in seconds (LATENCY kind only)

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError("SLO target must be in (0, 1)")
        if self.kind == LATENCY and self.threshold <= 0:
            raise ConfigurationError("latency SLOs need a positive threshold")

    @property
    def budget(self) -> float:
        """The error budget: the allowed bad fraction, ``1 - target``."""
        return 1.0 - self.target


def default_slos(
    e2e_threshold: float = 2.5,
    ttfp_threshold: float = 0.5,
) -> Tuple[SLODefinition, ...]:
    """The fleet's stock objectives: availability 99.9%, e2e p99 and TTFP
    p95 (a latency target of 0.99 reads "p99 under the threshold")."""
    return (
        SLODefinition(name="availability", kind=AVAILABILITY, target=0.999),
        SLODefinition(
            name="e2e-p99", kind=LATENCY, target=0.99,
            metric=E2E_METRIC, threshold=e2e_threshold,
        ),
        SLODefinition(
            name="ttfp-p95", kind=LATENCY, target=0.95,
            metric=TTFP_METRIC, threshold=ttfp_threshold,
        ),
    )


@dataclass(frozen=True)
class AlertFiring:
    """One alert rule firing at one evaluation window."""

    alert: str
    window: int
    long_burn: float
    short_burn: float


@dataclass(frozen=True)
class SLOStatus:
    """One objective evaluated over a rollup horizon."""

    slo: SLODefinition
    good: int
    bad: int
    firings: Tuple[AlertFiring, ...] = ()

    @property
    def total(self) -> int:
        return self.good + self.bad

    @property
    def compliance(self) -> float:
        """Measured good fraction (1.0 on an empty horizon: nothing failed)."""
        return self.good / self.total if self.total else 1.0

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget spent (can exceed 1.0)."""
        return (self.bad / self.total) / self.slo.budget if self.total else 0.0

    @property
    def met(self) -> bool:
        return self.compliance >= self.slo.target


def _window_counts(
    snapshot: RollupSnapshot, slo: SLODefinition
) -> List[Tuple[int, int, int]]:
    """``(window, good, bad)`` per rollup window, in window order."""
    if slo.kind == AVAILABILITY:
        good = snapshot.counter_by_window(slo.metric, status="ok")
        degraded = snapshot.counter_by_window(slo.metric, status="degraded")
        failed = snapshot.counter_by_window(slo.metric, status="failed")
        return [
            (window, good.get(window, 0) + degraded.get(window, 0),
             failed.get(window, 0))
            for window in sorted(set(good) | set(degraded) | set(failed))
        ]
    counts = []
    for window, panel in sorted(snapshot.panel_by_window(slo.metric).items()):
        good = sum(w for v, w in zip(panel.samples, panel.weights) if v <= slo.threshold)
        counts.append((window, good, panel.kept - good))
    return counts


def _firings(
    counts: Sequence[Tuple[int, int, int]], budget: float
) -> Tuple[AlertFiring, ...]:
    """Every :data:`BURN_RATE_ALERTS` firing, window by window."""

    def burn(lookback: int, end: int) -> float:
        """The burn rate over the trailing windows ``(end - lookback, end]``."""
        inside = [(good, bad) for w, good, bad in counts if end - lookback < w <= end]
        total = sum(good + bad for good, bad in inside)
        return (sum(bad for _, bad in inside) / total) / budget if total else 0.0

    firings = []
    for index in range(counts[0][0], counts[-1][0] + 1) if counts else ():
        for name, long_windows, short_windows, factor in BURN_RATE_ALERTS:
            long_burn, short_burn = burn(long_windows, index), burn(short_windows, index)
            if long_burn >= factor and short_burn >= factor:
                firings.append(AlertFiring(name, index, long_burn, short_burn))
    return tuple(firings)


def evaluate_slos(
    snapshot: RollupSnapshot,
    slos: Optional[Sequence[SLODefinition]] = None,
) -> Tuple[SLOStatus, ...]:
    """Evaluate the objectives (:func:`default_slos` when none are given)
    whose metric the snapshot holds: a replay without a TTFP model should
    not report a vacuously met TTFP SLO."""
    present = set(snapshot.metrics())
    statuses = []
    for slo in default_slos() if slos is None else slos:
        if slo.metric not in present:
            continue
        counts = _window_counts(snapshot, slo)
        statuses.append(SLOStatus(
            slo=slo,
            good=sum(good for _, good, _ in counts),
            bad=sum(bad for _, _, bad in counts),
            firings=_firings(counts, slo.budget),
        ))
    return tuple(statuses)


# -- trace sampling -----------------------------------------------------------------

#: Keep reasons, in the order :func:`sample` tries them.
KEEP_ERROR = "error"          #: some span of the trace errored
KEEP_SLOW = "slow"            #: top-latency reservoir member
KEEP_HEAD = "head"            #: the head coin landed under the rate
DROPPED = "dropped"


def head_score(seed: int, trace_id: str) -> float:
    """The trace's head-sampling score in ``[0, 1)``: the top 8 bytes of
    sha256 over ``(seed, trace_id)``, so the coin replays with the ids."""
    payload = f"{seed}:{trace_id}:head".encode()
    numerator = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
    return numerator / float(1 << 64)


@dataclass(frozen=True)
class TraceSummary:
    """The deterministic facts one trace contributes to a sampling verdict."""

    trace_id: str
    ordinal: int
    n_spans: int
    latency: float            #: deterministic (virtual) latency, seconds
    errored: bool


def summarize_forest(spans: Iterable[Span]) -> List[TraceSummary]:
    """Per-trace summaries of a span forest, in ordinal order.  Only span
    status and the root's ``virtual_seconds`` are read, never wall times,
    so the summaries are backend-independent."""
    traces: Dict[str, Dict] = {}
    for span in spans:
        entry = traces.setdefault(
            span.trace_id,
            {"ordinal": span.ordinal, "n_spans": 0, "latency": 0.0,
             "errored": False},
        )
        entry["n_spans"] += 1
        if span.status == "error":
            entry["errored"] = True
        if span.kind == QUERY:
            entry["ordinal"] = span.ordinal
            virtual = span.attributes.get("virtual_seconds")
            if virtual is not None:
                entry["latency"] = max(entry["latency"], float(virtual))
    return [
        TraceSummary(trace_id=trace_id, **entry)
        for trace_id, entry in sorted(
            traces.items(), key=lambda item: (item[1]["ordinal"], item[0])
        )
    ]


def summarize_outcomes(outcomes: Sequence, trace_seed: int = 0) -> List[TraceSummary]:
    """Per-trace summaries of virtual replay outcomes.

    A rejected query is an errored trace, as the live fleet's shed ends its
    ROUTER span with an error; an admitted one has its virtual response
    time as latency.  Trace ids are derived as in live tracing, so a replay
    and a live run of the same stream sample identically.
    """
    return [
        TraceSummary(
            trace_id=trace_id_for(trace_seed, outcome.ordinal),
            ordinal=outcome.ordinal,
            n_spans=2 if outcome.admitted else 1,
            latency=outcome.response if outcome.admitted else 0.0,
            errored=not outcome.admitted,
        )
        for outcome in outcomes
    ]


def sample(
    summaries: Sequence[TraceSummary], head_rate: float, seed: int, top_k: int
) -> List[str]:
    """One keep reason (or :data:`DROPPED`) per summary, in the input order.

    Permuting the summaries permutes, but never changes, the reasons.
    """
    if not 0.0 <= head_rate <= 1.0:
        raise ConfigurationError("head sampling rate must be in [0, 1]")
    if top_k < 0:
        raise ConfigurationError("top_k must be >= 0")
    ranked = sorted(summaries, key=lambda s: (-s.latency, s.trace_id))
    slowest = {s.trace_id for s in ranked[:top_k]}
    return [
        KEEP_ERROR if summary.errored
        else KEEP_SLOW if summary.trace_id in slowest
        else KEEP_HEAD if head_score(seed, summary.trace_id) < head_rate
        else DROPPED
        for summary in summaries
    ]


@dataclass(frozen=True)
class SamplingStats:
    """What sampling kept, dropped, and saved — plus the scale-out view."""

    head_rate: float
    seed: int
    top_k: int
    total_traces: int
    kept_traces: int
    total_spans: int
    kept_spans: int
    by_reason: Tuple[Tuple[str, int], ...]   #: sorted (reason, trace count)

    @property
    def span_reduction(self) -> float:
        """Spans avoided, as a factor (total / kept; inf when all dropped)."""
        if self.kept_spans == 0:
            return float("inf") if self.total_spans else 1.0
        return self.total_spans / self.kept_spans

    def extrapolate(self, target_queries: int = 1_000_000) -> "SamplingStats":
        """Project the measured mix to ``target_queries`` traces.

        Decisions are i.i.d. under the hash model, so every class scales
        proportionally (counts round to nearest) and the reduction factor
        is scale-invariant: the replay prices the million-query hour.
        """
        if self.total_traces == 0:
            raise ConfigurationError("cannot extrapolate from zero traces")
        scale = target_queries / self.total_traces
        return replace(
            self,
            total_traces=target_queries,
            kept_traces=int(round(self.kept_traces * scale)),
            total_spans=int(round(self.total_spans * scale)),
            kept_spans=int(round(self.kept_spans * scale)),
            by_reason=tuple(
                (reason, int(round(count * scale)))
                for reason, count in self.by_reason
            ),
        )


# -- the report ---------------------------------------------------------------------

@dataclass(frozen=True)
class FleetReport:
    """Everything the dashboard renders, already evaluated."""

    source: str                         #: "replay" or "spans"
    rollups: RollupSnapshot
    slos: Tuple[SLOStatus, ...]
    sampling: SamplingStats
    extrapolated: Optional[SamplingStats]
    #: :func:`repro.obs.cost.fleet_cost_panel`: attributed joules/dollars
    #: plus, for replays, the priced autoscaler trajectory.
    cost: Dict
    #: (tick, active replicas) — replay source only.
    replica_timeline: Tuple[Tuple[int, int], ...] = ()


def _assemble(
    source: str,
    rollups: RollupSnapshot,
    summaries: Sequence[TraceSummary],
    head_rate: float,
    top_k: int,
    sample_seed: int,
    slos: Optional[Sequence[SLODefinition]],
    cost: Dict,
    replica_timeline: Tuple[Tuple[int, int], ...] = (),
) -> FleetReport:
    reasons = sample(summaries, head_rate, sample_seed, top_k)
    kept = [(s, reason) for s, reason in zip(summaries, reasons) if reason != DROPPED]
    stats = SamplingStats(
        head_rate=head_rate,
        seed=sample_seed,
        top_k=top_k,
        total_traces=len(summaries),
        kept_traces=len(kept),
        total_spans=sum(summary.n_spans for summary in summaries),
        kept_spans=sum(summary.n_spans for summary, _ in kept),
        by_reason=tuple(sorted(Counter(reason for _, reason in kept).items())),
    )
    return FleetReport(
        source=source,
        rollups=rollups,
        slos=evaluate_slos(rollups, slos),
        sampling=stats,
        extrapolated=stats.extrapolate(TARGET_QUERIES) if summaries else None,
        cost=cost,
        replica_timeline=replica_timeline,
    )


def report_from_replay(
    result,
    head_rate: float = 0.1,
    top_k: int = 8,
    sample_seed: int = 0,
    trace_seed: int = 0,
    slos: Optional[Sequence[SLODefinition]] = None,
) -> FleetReport:
    """Evaluate a :class:`~repro.serving.cluster.replay.ReplayResult`."""
    timeline = tuple(result.replica_timeline)
    return _assemble(
        "replay", result.rollups(),
        summarize_outcomes(result.outcomes, trace_seed=trace_seed),
        head_rate, top_k, sample_seed, slos,
        cost=fleet_cost_panel(
            ledger_from_replay(result),
            replica_timeline=timeline,
            tick_seconds=result.tick_seconds,
        ),
        replica_timeline=timeline,
    )


def report_from_spans(
    spans: Sequence,
    window: float,
    head_rate: float = 0.1,
    top_k: int = 8,
    sample_seed: int = 0,
    slos: Optional[Sequence[SLODefinition]] = None,
) -> FleetReport:
    """Evaluate a span forest on the ordinal clock, ``window`` queries wide."""
    return _assemble(
        "spans", rollups_from_spans(spans, window=window),
        summarize_forest(spans),
        head_rate, top_k, sample_seed, slos,
        # Priced without the measured router waits, so the panel stays equal
        # across runs; `trace-report`'s ledger prices them.
        cost=fleet_cost_panel(ledger_from_spans([replace(s, wait=0.0) for s in spans])),
    )


# -- rendering ----------------------------------------------------------------------

def _overview_rows(report: FleetReport) -> List[List[str]]:
    rollups = report.rollups
    rows = [
        ["source", report.source],
        ["window width", f"{rollups.window_seconds:g}"],
        ["windows", str(len(rollups.windows()))],
    ]
    arrivals = rollups.counter_total(ARRIVALS_METRIC)
    if arrivals:
        rows.append(["arrivals", str(arrivals)])
    for status in ("ok", "degraded", "failed"):
        count = rollups.counter_total(QUERIES_METRIC, status=status)
        rows.append([f"queries {status}", str(count)])
    rows.append(["rejected (admission)", str(rollups.counter_total(REJECTED_METRIC))])
    return rows


def _replica_rows(report: FleetReport) -> List[List[str]]:
    rollups = report.rollups
    replicas = {
        value
        for cell in rollups.counter_cells(ASSIGNMENTS_METRIC)
        for key, value in cell.labels
        if key == "replica"
    }
    rows = []
    for replica in sorted(replicas, key=lambda r: (len(r), r)):
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
    named = [
        ("e2e", E2E_METRIC), ("ttfp", TTFP_METRIC),
        ("router wait", WAIT_METRIC), ("service", SERVICE_METRIC),
    ]
    panels = [(label, rollups.merged_panel(metric)) for label, metric in named]
    stages = {
        value
        for cell in rollups.panel_cells(STAGE_VIRTUAL_METRIC)
        for key, value in cell.labels
        if key == "stage"
    }
    panels.extend(
        (f"stage {stage}", rollups.merged_panel(STAGE_VIRTUAL_METRIC, stage=stage))
        for stage in sorted(stages)
    )
    return [
        [label, str(panel.observed)]
        + [f"{panel.percentile(q):.4f}" for q in (50.0, 95.0, 99.0)]
        for label, panel in panels
        if panel is not None
    ]


def _slo_rows(report: FleetReport) -> List[List[str]]:
    rows = []
    for status in report.slos:
        slo = status.slo
        target = (
            f"{slo.target:.3%}" if slo.kind == AVAILABILITY
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
    reduction = f"{stats.span_reduction:.1f}x" if stats.kept_spans else "all dropped"
    rows = [
        ["head rate", f"{stats.head_rate:g}"],
        ["traces kept / total", f"{stats.kept_traces} / {stats.total_traces}"],
        ["spans kept / total", f"{stats.kept_spans} / {stats.total_spans}"],
        ["span reduction", reduction],
    ]
    rows += [[f"kept: {reason}", str(count)] for reason, count in stats.by_reason]
    if report.extrapolated is not None:
        extra = report.extrapolated
        rows.append([
            f"@ {extra.total_traces} queries",
            f"{extra.kept_spans} of {extra.total_spans} spans "
            f"({extra.span_reduction:.1f}x reduction)",
        ])
    return rows


def _cost_rows(report: FleetReport) -> List[List[str]]:
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
        rows += [
            ["provisioned replica-seconds",
             f"{panel['provisioned_replica_seconds']:.1f}"],
            ["provisioned energy", format_energy(panel["provisioned_microjoules"])],
            ["provisioned dollars (TCO)", f"${panel['provisioned_dollars']:.8f}"],
        ]
    return rows


def render_fleet_report(report: FleetReport) -> str:
    """The deterministic text dashboard."""
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
        # The replica trajectory, compressed to its change points.
        timeline = report.replica_timeline
        sections.append("Autoscaler trajectory (tick:replicas):\n  " + " -> ".join(
            f"t{tick}:{count}"
            for i, (tick, count) in enumerate(timeline)
            if i == 0 or count != timeline[i - 1][1]
        ))
    if report.slos:
        sections.append(format_table(
            "SLO budgets",
            ["SLO", "Kind", "Target", "Compliance", "Budget burned", "Met",
             "Alerts"],
            _slo_rows(report),
        ))
        firing_lines = []
        for status in report.slos:
            for firing in status.firings[:MAX_FIRINGS]:
                firing_lines.append(
                    f"  [{firing.alert}] {status.slo.name} at window "
                    f"{firing.window}: long {firing.long_burn:.1f}x / "
                    f"short {firing.short_burn:.1f}x budget"
                )
            if len(status.firings) > MAX_FIRINGS:
                firing_lines.append(
                    f"  ... {len(status.firings) - MAX_FIRINGS} more "
                    f"{status.slo.name} firings"
                )
        if firing_lines:
            sections.append("Firing burn-rate alerts:\n" + "\n".join(firing_lines))
        else:
            sections.append("Firing burn-rate alerts: none")
    sections += [
        format_table("Cost & energy", ["Metric", "Value"], _cost_rows(report)),
        format_table("Trace sampling", ["Metric", "Value"], _sampling_rows(report)),
    ]
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
        **asdict(stats),
        "span_reduction": stats.span_reduction if stats.kept_spans else None,
        "by_reason": dict(stats.by_reason),
    }


def report_to_json(report: FleetReport) -> str:
    """Canonical JSON (sorted keys, 2-space indent, trailing newline)."""
    rollups = report.rollups
    payload = {
        "schema": SCHEMA,
        "source": report.source,
        "window_seconds": rollups.window_seconds,
        "windows": list(rollups.windows()),
        "counters": [
            {**asdict(cell), "labels": dict(cell.labels)}
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
                "firings": [asdict(firing) for firing in status.firings],
            }
            for status in report.slos
        ],
        "sampling": _stats_dict(report.sampling),
        "extrapolated": (
            _stats_dict(report.extrapolated)
            if report.extrapolated is not None else None
        ),
        "cost": dict(report.cost),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
