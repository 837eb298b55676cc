"""The cost ledger: per-query joules and dollars, with an explicit AI tax.

The paper's warehouse-scale claims (Sections 6-7, Figures 15/18, Tables
8/9) are energy and TCO claims, but aggregate models hide *where* the
joules go inside a query.  This module folds the deterministic span
forests (:mod:`repro.obs.trace`) and work counters
(:mod:`repro.obs.counters`) into a **ledger**: per query, per stage, an
integer-microjoule energy attribution and a TCO-amortized dollar figure,
split into an explicit "AI tax" decomposition:

- ``compute``   — served kernel work (modeled seconds from counter flops
  through the roofline, priced at full-server watts);
- ``degraded``  — work a degraded query threw away (a failed service in a
  VIQ-to-VQ downgrade: computed, then discarded);
- ``retries``   — wasted attempts: retried tries, breaker fast-fails,
  deadline overruns, and everything under terminally failed queries;
- ``router_wait`` — time spent in the router stage;
- ``queueing``  — injected stall time on otherwise successful paths.

Everything except ``compute`` is overhead the accelerators never touch —
the "AI tax" made a measured line item instead of noise.

**Exactness discipline.**  Energy is produced at exactly one rounding
point (:func:`repro.obs.pricing.energy_microjoules`) and totals are
integer sums of those values, so per-stage attributions sum *exactly* to
per-query and per-trace totals (``math.fsum`` over the integers is the
plain sum); dollars accumulate with ``math.fsum``.  Every input is a pure
function of seeds and virtual time, so the ledger is byte-identical
across serial/thread/process backends, chaos replays included.

**What-if repricing.**  :func:`reprice` rebuilds the same ledger on
CMP/GPU/Phi/FPGA: service-stage compute seconds scale by the Table 5
service speedups (Amdahl-composed, transfer-overhead-burdened —
:mod:`repro.platforms.speedups`), Sirius Suite kernel spans go through
the roofline with their per-kernel SIMD-friendliness
(:mod:`repro.platforms.roofline`), and the tax never scales.  Per-stage
compute dollars then reproduce the Figure 18 / Table 8/9 TCO rank order
at trace granularity (the proportionality is exact: both are
``monthly_tco x (1 + overhead) / speedup``).  :func:`fleet_costs`
extrapolates through the cluster replay's scale-invariance argument to
the million-query day: servers, joules, and dollars per platform, with
the AI tax as its own line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.datacenter.tco import TCOModel, TCOParameters
from repro.errors import ObsError
from repro.obs.counters import WorkCounters, counters_of, wasted_span_ids
from repro.obs.pricing import (
    dollars_per_server_second,
    electricity_dollars,
    energy_microjoules,
)
from repro.obs.trace import KERNEL, QUERY, ROUTER, SERVICE, query_outcome, sort_key
from repro.platforms.roofline import KERNEL_PROFILES, attainable_for_intensity
from repro.platforms.spec import CMP, PLATFORMS, spec
from repro.platforms.speedups import ASR_GMM, IMM, QA, service_speedup

#: Canonical JSON schema tag for ``repro cost-report --json``.
SCHEMA = "repro.cost-report/v1"

#: Ledger categories, in decomposition order.  ``COMPUTE`` is served work;
#: everything after it is the AI tax.
COMPUTE = "compute"
DEGRADED = "degraded"
RETRIES = "retries"
ROUTER_WAIT = "router_wait"
QUEUEING = "queueing"
TAX_CATEGORIES: Tuple[str, ...] = (DEGRADED, RETRIES, ROUTER_WAIT, QUEUEING)
CATEGORIES: Tuple[str, ...] = (COMPUTE,) + TAX_CATEGORIES

#: Trace service labels -> the Section 5 service whose Table 5 speedup
#: reprices the stage.  Glue stages (CLASSIFY, ROUTER) have no entry and
#: never accelerate — they are part of the tax argument.
SERVICE_SPEEDUP_KEYS: Dict[str, str] = {"ASR": ASR_GMM, "QA": QA, "IMM": IMM}

#: Fallback operational intensity when a span recorded flops but no bytes.
_DEFAULT_INTENSITY = 1.0

#: Per-query entries included verbatim in reports (totals always cover all).
DEFAULT_QUERY_LIMIT = 12

_GIGA = 1e9


# -- time models --------------------------------------------------------------------

def stage_time_scale(stage: str, platform: str) -> float:
    """Service-stage time on ``platform`` relative to the CMP baseline.

    ``(1 + transfer_overhead) / relative_speedup`` with the relative
    speedup read from the Amdahl-composed Table 5 service speedups; CMP is
    exactly 1.0, and unmapped (glue) stages never accelerate.
    """
    key = SERVICE_SPEEDUP_KEYS.get(stage)
    if key is None:
        return 1.0
    relative = service_speedup(key, platform) / service_speedup(key, CMP)
    return (1.0 + spec(platform).transfer_overhead) / relative


def _cmp_compute_seconds(counters: WorkCounters) -> float:
    """Modeled CMP seconds for a counter total (roofline at measured intensity)."""
    if counters.flops <= 0:
        return 0.0
    intensity = counters.intensity if counters.bytes else _DEFAULT_INTENSITY
    return counters.flops / _GIGA / attainable_for_intensity(intensity, CMP)


def service_compute_seconds(
    counters: WorkCounters, stage: str, platform: str
) -> float:
    """Modeled seconds of a service stage's counter work on ``platform``."""
    return _cmp_compute_seconds(counters) * stage_time_scale(stage, platform)


def kernel_compute_seconds(
    counters: WorkCounters, kernel: str, platform: str
) -> float:
    """Modeled seconds of a Sirius Suite kernel span on ``platform``.

    Suite traces carry no service stage, so they are repriced directly on
    the roofline: attainable GFLOP/s at the *measured* intensity (falling
    back to the kernel's analytic profile) and the kernel's per-platform
    SIMD friendliness, plus the accelerator's transfer overhead.
    """
    if counters.flops <= 0:
        return 0.0
    profile = KERNEL_PROFILES.get(kernel)
    friendliness = profile.simd_friendliness if profile else 1.0
    if counters.bytes:
        intensity = counters.intensity
    else:
        intensity = (
            profile.operational_intensity if profile else _DEFAULT_INTENSITY
        )
    seconds = counters.flops / _GIGA / attainable_for_intensity(
        intensity, platform, friendliness
    )
    if platform != CMP:
        seconds *= 1.0 + spec(platform).transfer_overhead
    return seconds


# -- ledger data model --------------------------------------------------------------

@dataclass(frozen=True)
class LedgerEntry:
    """One (stage, category) attribution inside one query."""

    stage: str
    category: str
    seconds: float
    microjoules: int
    dollars: float
    counters: WorkCounters = WorkCounters()
    events: int = 0


@dataclass(frozen=True)
class QueryCost:
    """One query's full attribution; totals are exact sums of the entries."""

    trace_id: str
    ordinal: int
    outcome: str   #: "ok" | "degraded" | "failed" | "rejected"
    entries: Tuple[LedgerEntry, ...]

    @property
    def microjoules(self) -> int:
        return sum(entry.microjoules for entry in self.entries)

    @property
    def dollars(self) -> float:
        return math.fsum(entry.dollars for entry in self.entries)


@dataclass(frozen=True)
class CategoryTotal:
    """Ledger-wide totals for one category (or one stage x category)."""

    seconds: float = 0.0
    microjoules: int = 0
    dollars: float = 0.0
    events: int = 0

    def fold(self, entry: LedgerEntry) -> "CategoryTotal":
        return CategoryTotal(
            seconds=self.seconds + entry.seconds,
            microjoules=self.microjoules + entry.microjoules,
            dollars=self.dollars + entry.dollars,
            events=self.events + entry.events,
        )


@dataclass(frozen=True)
class CostLedger:
    """The full attribution of one trace set (or replay) on one platform."""

    platform: str
    source: str    #: "spans" | "replay"
    queries: Tuple[QueryCost, ...]
    parameters: TCOParameters = field(default_factory=TCOParameters)

    @property
    def total_microjoules(self) -> int:
        return sum(query.microjoules for query in self.queries)

    @property
    def total_dollars(self) -> float:
        # One flat fsum over every entry — bit-identical to summing the
        # entries directly, which nesting per-query fsums would not be.
        return math.fsum(
            entry.dollars
            for query in self.queries
            for entry in query.entries
        )

    def category_totals(self) -> Dict[str, CategoryTotal]:
        totals = {category: CategoryTotal() for category in CATEGORIES}
        for query in self.queries:
            for entry in query.entries:
                totals[entry.category] = totals[entry.category].fold(entry)
        return totals

    def stage_totals(self) -> Dict[Tuple[str, str], CategoryTotal]:
        """(stage, category) -> totals, deterministically ordered."""
        totals: Dict[Tuple[str, str], CategoryTotal] = {}
        for query in self.queries:
            for entry in query.entries:
                key = (entry.stage, entry.category)
                totals[key] = totals.get(key, CategoryTotal()).fold(entry)
        return {key: totals[key] for key in sorted(totals)}

    def tax_microjoules(self) -> int:
        totals = self.category_totals()
        return sum(totals[category].microjoules for category in TAX_CATEGORIES)

    def tax_dollars(self) -> float:
        totals = self.category_totals()
        return math.fsum(totals[category].dollars for category in TAX_CATEGORIES)


# -- building a ledger from a span forest -------------------------------------------

class _EntryAccumulator:
    """Folds one query's spans into (stage, category) buckets."""

    def __init__(self) -> None:
        self.buckets: Dict[Tuple[str, str, bool], List] = {}

    def add(
        self,
        stage: str,
        category: str,
        kernel: bool = False,
        stall_seconds: float = 0.0,
        counters: WorkCounters = WorkCounters(),
        events: int = 0,
    ) -> None:
        key = (stage, category, kernel)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = [0.0, WorkCounters(), 0]
            self.buckets[key] = bucket
        bucket[0] += stall_seconds
        bucket[1] = bucket[1] + counters
        bucket[2] += events

    def entries(
        self, platform: str, rate: float
    ) -> Tuple[LedgerEntry, ...]:
        entries = []
        for (stage, category, kernel) in sorted(self.buckets):
            stall, counters, events = self.buckets[(stage, category, kernel)]
            if kernel:
                work = kernel_compute_seconds(counters, stage, platform)
            else:
                work = service_compute_seconds(counters, stage, platform)
            seconds = stall + work
            if seconds == 0.0 and counters.invocations == 0 and events == 0:
                continue
            entries.append(
                LedgerEntry(
                    stage=stage,
                    category=category,
                    seconds=seconds,
                    microjoules=energy_microjoules(platform, seconds),
                    dollars=seconds * rate,
                    counters=counters,
                    events=events,
                )
            )
        return tuple(entries)


def ledger_from_spans(
    spans: Sequence,
    platform: str = CMP,
    parameters: Optional[TCOParameters] = None,
) -> CostLedger:
    """Fold a deterministic span forest into a :class:`CostLedger`.

    Only seed-deterministic span fields are read (kinds, status, parent
    links, attributes — counters and ``virtual_seconds``), never wall
    clocks, so the same chaos run ledgers byte-identically on every
    execution backend.
    """
    if platform not in PLATFORMS:
        raise ObsError(f"unknown platform {platform!r}; expected {PLATFORMS}")
    parameters = parameters if parameters is not None else TCOParameters()
    rate = dollars_per_server_second(platform, parameters)
    ordered = sorted(spans, key=sort_key)
    by_id = {span.span_id: span for span in ordered}
    wasted = wasted_span_ids(ordered)

    def enclosing_service(span):
        node = span
        while node is not None:
            if node.kind == SERVICE:
                return node
            node = by_id.get(node.parent_id)
        return None

    def stage_of(span) -> Tuple[str, bool]:
        service = enclosing_service(span)
        if service is not None:
            return service.service or service.name, False
        if span.kind == KERNEL:
            return span.attributes.get("kernel", span.name), True
        return span.service or span.name, False

    traces: Dict[str, List] = {}
    roots: Dict[str, object] = {}
    for span in ordered:
        traces.setdefault(span.trace_id, []).append(span)
        if span.kind == QUERY:
            roots[span.trace_id] = span

    queries: List[QueryCost] = []
    trace_order = sorted(
        traces,
        key=lambda t: (roots[t].ordinal if t in roots else 0, t),
    )
    for trace_id in trace_order:
        members = traces[trace_id]
        root = roots.get(trace_id)
        outcome = query_outcome(root) if root is not None else "ok"
        acc = _EntryAccumulator()
        for span in members:
            is_wasted = span.span_id in wasted

            def wasted_category(span=span) -> str:
                service = enclosing_service(span)
                if (
                    outcome == "degraded"
                    and service is not None
                    and service.status == "error"
                ):
                    return DEGRADED
                return RETRIES

            if span.kind == ROUTER:
                seconds = float(span.attributes.get("virtual_seconds", 0.0))
                category = wasted_category() if is_wasted else ROUTER_WAIT
                acc.add("ROUTER", category, stall_seconds=seconds, events=1)
                continue
            if span.kind == SERVICE:
                virtual = span.attributes.get("virtual_seconds")
                if virtual:
                    stage, _ = stage_of(span)
                    category = wasted_category() if is_wasted else QUEUEING
                    acc.add(stage, category, stall_seconds=float(virtual))
            counters = counters_of(span.attributes)
            if counters.invocations or counters.flops or counters.bytes:
                stage, kernel = stage_of(span)
                category = wasted_category() if is_wasted else COMPUTE
                acc.add(
                    stage, category, kernel=kernel,
                    counters=counters, events=1,
                )
        queries.append(
            QueryCost(
                trace_id=trace_id,
                ordinal=root.ordinal if root is not None else 0,
                outcome=outcome,
                entries=acc.entries(platform, rate),
            )
        )
    return CostLedger(
        platform=platform, source="spans",
        queries=tuple(queries), parameters=parameters,
    )


# -- building a ledger from a cluster replay ----------------------------------------

def replay_mix_scale(platform: str) -> float:
    """Replay time scale: the mean of the mapped service stage scales.

    The virtual replay samples one opaque service time per query, so the
    what-if repricing assumes a uniform mix of the paper services (ASR,
    QA, IMM) and scales the busy time by their average Table 5 factor.
    """
    scales = [
        stage_time_scale(stage, platform) for stage in sorted(SERVICE_SPEEDUP_KEYS)
    ]
    return math.fsum(scales) / len(scales)


def ledger_from_replay(
    result,
    platform: str = CMP,
    parameters: Optional[TCOParameters] = None,
) -> CostLedger:
    """Price a :class:`~repro.serving.cluster.replay.ReplayResult`.

    Admitted queries attribute their sampled service seconds (scaled by
    :func:`replay_mix_scale`) to ``compute`` and their queue wait to
    ``router_wait`` — the replay's wait *is* router queueing.  Shed
    arrivals become zero-second ``retries`` entries so rejected work is a
    visible (countable) line even though it burned no modeled joules.
    """
    if platform not in PLATFORMS:
        raise ObsError(f"unknown platform {platform!r}; expected {PLATFORMS}")
    parameters = parameters if parameters is not None else TCOParameters()
    rate = dollars_per_server_second(platform, parameters)
    scale = replay_mix_scale(platform)
    queries: List[QueryCost] = []
    for outcome in result.outcomes:
        trace_id = f"replay-{outcome.ordinal}"
        if not outcome.admitted:
            entry = LedgerEntry(
                stage="ROUTER", category=RETRIES,
                seconds=0.0, microjoules=0, dollars=0.0, events=1,
            )
            queries.append(
                QueryCost(
                    trace_id=trace_id, ordinal=outcome.ordinal,
                    outcome="rejected", entries=(entry,),
                )
            )
            continue
        busy = outcome.service * scale
        entries = [
            LedgerEntry(
                stage="service", category=COMPUTE,
                seconds=busy,
                microjoules=energy_microjoules(platform, busy),
                dollars=busy * rate,
                events=1,
            )
        ]
        if outcome.wait > 0.0:
            entries.append(
                LedgerEntry(
                    stage="ROUTER", category=ROUTER_WAIT,
                    seconds=outcome.wait,
                    microjoules=energy_microjoules(platform, outcome.wait),
                    dollars=outcome.wait * rate,
                    events=1,
                )
            )
        queries.append(
            QueryCost(
                trace_id=trace_id, ordinal=outcome.ordinal,
                outcome="ok", entries=tuple(entries),
            )
        )
    return CostLedger(
        platform=platform, source="replay",
        queries=tuple(queries), parameters=parameters,
    )


# -- what-if repricing --------------------------------------------------------------

@dataclass(frozen=True)
class WhatIfRow:
    """One platform's repriced totals over the same trace."""

    platform: str
    compute_microjoules: int
    tax_microjoules: int
    compute_dollars: float
    tax_dollars: float

    @property
    def total_microjoules(self) -> int:
        return self.compute_microjoules + self.tax_microjoules

    @property
    def total_dollars(self) -> float:
        return math.fsum((self.compute_dollars, self.tax_dollars))


def reprice(
    build_ledger: Callable[[str], CostLedger],
    platforms: Sequence[str] = PLATFORMS,
) -> Tuple[WhatIfRow, ...]:
    """Re-run a ledger builder per platform and summarize the what-ifs."""
    rows = []
    for platform in platforms:
        ledger = build_ledger(platform)
        totals = ledger.category_totals()
        rows.append(
            WhatIfRow(
                platform=platform,
                compute_microjoules=totals[COMPUTE].microjoules,
                tax_microjoules=ledger.tax_microjoules(),
                compute_dollars=totals[COMPUTE].dollars,
                tax_dollars=ledger.tax_dollars(),
            )
        )
    return tuple(rows)


def stage_compute_dollars(
    build_ledger: Callable[[str], CostLedger],
    platforms: Sequence[str] = PLATFORMS,
) -> Dict[str, Dict[str, float]]:
    """stage -> platform -> served-compute dollars (the Fig 18 analogue)."""
    table: Dict[str, Dict[str, float]] = {}
    for platform in platforms:
        ledger = build_ledger(platform)
        for (stage, category), total in ledger.stage_totals().items():
            if category != COMPUTE:
                continue
            table.setdefault(stage, {})[platform] = total.dollars
    return {stage: table[stage] for stage in sorted(table)}


def fig18_reference_order(
    service_key: str, parameters: Optional[TCOParameters] = None
) -> Tuple[str, ...]:
    """Platforms cheapest-first by Figure 18's normalized TCO for a service."""
    from repro.platforms.model import AcceleratorModel

    model = AcceleratorModel()
    tco = TCOModel(parameters) if parameters is not None else TCOModel()
    return tuple(
        sorted(
            PLATFORMS,
            key=lambda platform: tco.normalized_tco(
                platform, model.throughput_improvement(service_key, platform)
            ),
        )
    )


def ledger_rank_order(platform_dollars: Mapping[str, float]) -> Tuple[str, ...]:
    """Platforms cheapest-first by repriced ledger dollars."""
    return tuple(
        sorted(platform_dollars, key=lambda platform: platform_dollars[platform])
    )


# -- fleet extrapolation ------------------------------------------------------------

@dataclass(frozen=True)
class FleetCostRow:
    """One platform's million-query-day bill."""

    platform: str
    n_servers: int
    compute_microjoules: int
    tax_microjoules: int
    dollars: float        #: provisioned fleet TCO over the window
    tax_dollars: float    #: the AI-tax line item (busy-second priced)

    @property
    def total_microjoules(self) -> int:
        return self.compute_microjoules + self.tax_microjoules

    @property
    def tax_share(self) -> float:
        total = self.total_microjoules
        return self.tax_microjoules / total if total else 0.0


@dataclass(frozen=True)
class FleetCost:
    """The extrapolated per-platform fleet bill for a target volume."""

    target_queries: int
    window_seconds: float
    rows: Tuple[FleetCostRow, ...]


def fleet_costs(
    build_ledger: Callable[[str], CostLedger],
    target_queries: int = 1_000_000,
    window_seconds: float = 86_400.0,
    platforms: Sequence[str] = PLATFORMS,
    per_replica_rate: Optional[float] = None,
) -> FleetCost:
    """Extrapolate a measured ledger to ``target_queries`` per window.

    Energy and attributed dollars scale linearly (target / measured
    queries — the cluster replay's scale-invariance argument).  Server
    counts come from ``per_replica_rate`` when a replay measured one
    (each replica's sustainable rate shrinks by the platform's busy-time
    scale), else from busy-second occupancy at the Table 7 average
    utilization.
    """
    if target_queries < 1 or window_seconds <= 0:
        raise ObsError("need target_queries >= 1 and a positive window")
    rows = []
    for platform in platforms:
        ledger = build_ledger(platform)
        n_measured = len(ledger.queries)
        if n_measured == 0:
            raise ObsError("cannot extrapolate from an empty ledger")
        scale = target_queries / n_measured
        totals = ledger.category_totals()
        compute_uj = int(round(totals[COMPUTE].microjoules * scale))
        tax_uj = int(round(ledger.tax_microjoules() * scale))
        busy_seconds = math.fsum(
            totals[category].seconds for category in CATEGORIES
        ) * scale
        if per_replica_rate is not None:
            platform_rate = per_replica_rate / replay_mix_scale(platform)
            n_servers = max(
                int(math.ceil(target_queries / window_seconds / platform_rate)),
                1,
            )
        else:
            utilization = ledger.parameters.average_utilization
            n_servers = max(
                int(math.ceil(busy_seconds / (window_seconds * utilization))), 1
            )
        rate = dollars_per_server_second(platform, ledger.parameters)
        rows.append(
            FleetCostRow(
                platform=platform,
                n_servers=n_servers,
                compute_microjoules=compute_uj,
                tax_microjoules=tax_uj,
                dollars=n_servers * window_seconds * rate,
                tax_dollars=ledger.tax_dollars() * scale,
            )
        )
    return FleetCost(
        target_queries=target_queries,
        window_seconds=window_seconds,
        rows=tuple(rows),
    )


def fleet_cost_panel(
    ledger: CostLedger,
    replica_timeline: Sequence[Tuple[int, int]] = (),
    tick_seconds: float = 0.0,
) -> Dict:
    """The fleet report's cost panel: one JSON-ready dict of plain values.

    Attributed figures come from the ledger; when a replay's autoscaler
    timeline is supplied, the *provisioned* trajectory is priced too —
    every replica-second the autoscaler kept powered, whether or not a
    query used it — so over-provisioning shows up as the gap between the
    two dollar lines.
    """
    total_uj = ledger.total_microjoules
    panel = {
        "platform": ledger.platform,
        "queries": len(ledger.queries),
        "microjoules": total_uj,
        "tco_dollars": ledger.total_dollars,
        "electricity_dollars": electricity_dollars(total_uj, ledger.parameters),
        "tax_microjoules": ledger.tax_microjoules(),
        "tax_dollars": ledger.tax_dollars(),
        "tax_share": ledger.tax_microjoules() / total_uj if total_uj else 0.0,
        "provisioned_replica_seconds": None,
        "provisioned_dollars": None,
        "provisioned_microjoules": None,
    }
    if replica_timeline and tick_seconds > 0:
        provisioned = math.fsum(
            count * tick_seconds for _, count in replica_timeline
        )
        rate = dollars_per_server_second(ledger.platform, ledger.parameters)
        panel["provisioned_replica_seconds"] = provisioned
        panel["provisioned_dollars"] = provisioned * rate
        panel["provisioned_microjoules"] = energy_microjoules(
            ledger.platform, provisioned
        )
    return panel


# -- the report ---------------------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    """Everything ``repro cost-report`` renders, already evaluated."""

    ledger: CostLedger
    what_if: Tuple[WhatIfRow, ...]
    stage_dollars: Dict[str, Dict[str, float]]
    fleet: Optional[FleetCost] = None
    query_limit: int = DEFAULT_QUERY_LIMIT


def cost_report_from_spans(
    spans: Sequence,
    platform: str = CMP,
    parameters: Optional[TCOParameters] = None,
    fleet: bool = False,
    target_queries: int = 1_000_000,
    window_seconds: float = 86_400.0,
    query_limit: int = DEFAULT_QUERY_LIMIT,
) -> CostReport:
    """Evaluate a span forest end to end (ledger, what-ifs, optional fleet)."""
    def build(p: str) -> CostLedger:
        return ledger_from_spans(spans, platform=p, parameters=parameters)

    return CostReport(
        ledger=build(platform),
        what_if=reprice(build),
        stage_dollars=stage_compute_dollars(build),
        fleet=(
            fleet_costs(
                build, target_queries=target_queries,
                window_seconds=window_seconds,
            )
            if fleet else None
        ),
        query_limit=query_limit,
    )


def cost_report_from_replay(
    result,
    platform: str = CMP,
    parameters: Optional[TCOParameters] = None,
    fleet: bool = False,
    target_queries: int = 1_000_000,
    window_seconds: float = 86_400.0,
    query_limit: int = DEFAULT_QUERY_LIMIT,
) -> CostReport:
    """Evaluate a cluster replay end to end, extrapolating via its rates."""
    from repro.serving.cluster.replay import extrapolate_fleet

    def build(p: str) -> CostLedger:
        return ledger_from_replay(result, platform=p, parameters=parameters)

    per_replica = None
    if fleet and result.n_admitted:
        per_replica = extrapolate_fleet(
            result, target_queries=target_queries,
            window_seconds=window_seconds,
        ).per_replica_rate
    return CostReport(
        ledger=build(platform),
        what_if=reprice(build),
        stage_dollars=stage_compute_dollars(build),
        fleet=(
            fleet_costs(
                build, target_queries=target_queries,
                window_seconds=window_seconds,
                per_replica_rate=per_replica,
            )
            if fleet else None
        ),
        query_limit=query_limit,
    )


# -- rendering ----------------------------------------------------------------------

def format_energy(microjoules: int) -> str:
    """Human-scaled energy; integers stay exact below a millijoule."""
    absolute = abs(microjoules)
    if absolute >= 10**9:
        return f"{microjoules / 10**9:.3f} kJ"
    if absolute >= 10**6:
        return f"{microjoules / 10**6:.3f} J"
    if absolute >= 10**3:
        return f"{microjoules / 10**3:.3f} mJ"
    return f"{microjoules} uJ"


def _overview_rows(report: CostReport) -> List[List[str]]:
    ledger = report.ledger
    outcomes: Dict[str, int] = {}
    for query in ledger.queries:
        outcomes[query.outcome] = outcomes.get(query.outcome, 0) + 1
    rows = [
        ["source", ledger.source],
        ["platform", ledger.platform],
        ["queries", str(len(ledger.queries))],
    ]
    for outcome in sorted(outcomes):
        rows.append([f"  {outcome}", str(outcomes[outcome])])
    total = ledger.total_microjoules
    rows.append(["energy", format_energy(total)])
    rows.append(["dollars (TCO-amortized)", f"${ledger.total_dollars:.8f}"])
    rows.append([
        "dollars (electricity only)",
        f"${electricity_dollars(total, ledger.parameters):.8f}",
    ])
    tax = ledger.tax_microjoules()
    rows.append([
        "AI tax share",
        f"{tax / total:.1%}" if total else "-",
    ])
    return rows


def _category_rows(report: CostReport) -> List[List[str]]:
    totals = report.ledger.category_totals()
    grand = report.ledger.total_microjoules
    rows = []
    for category in CATEGORIES:
        total = totals[category]
        share = total.microjoules / grand if grand else 0.0
        rows.append([
            category,
            f"{total.seconds:.6f}",
            format_energy(total.microjoules),
            f"${total.dollars:.8f}",
            str(total.events),
            f"{share:.1%}",
        ])
    return rows


def _stage_rows(report: CostReport) -> List[List[str]]:
    rows = []
    for (stage, category), total in report.ledger.stage_totals().items():
        rows.append([
            stage, category,
            f"{total.seconds:.6f}",
            format_energy(total.microjoules),
            f"${total.dollars:.8f}",
        ])
    return rows


def _what_if_rows(report: CostReport) -> List[List[str]]:
    ranked = {
        row.platform: rank + 1
        for rank, row in enumerate(
            sorted(report.what_if, key=lambda row: row.total_dollars)
        )
    }
    rows = []
    for row in report.what_if:
        rows.append([
            row.platform,
            format_energy(row.compute_microjoules),
            format_energy(row.tax_microjoules),
            f"${row.compute_dollars:.8f}",
            f"${row.total_dollars:.8f}",
            str(ranked[row.platform]),
        ])
    return rows


def _fleet_rows(fleet: FleetCost) -> List[List[str]]:
    rows = []
    for row in fleet.rows:
        rows.append([
            row.platform,
            str(row.n_servers),
            format_energy(row.total_microjoules),
            f"${row.dollars:,.2f}",
            f"${row.tax_dollars:,.2f}",
            f"{row.tax_share:.1%}",
        ])
    return rows


def _query_rows(report: CostReport) -> List[List[str]]:
    rows = []
    for query in report.ledger.queries[: report.query_limit]:
        top = max(
            query.entries, key=lambda e: e.microjoules, default=None
        )
        rows.append([
            str(query.ordinal),
            query.outcome,
            format_energy(query.microjoules),
            f"${query.dollars:.8f}",
            f"{top.stage}/{top.category}" if top is not None else "-",
        ])
    return rows


def render_cost_report(report: CostReport) -> str:
    """The deterministic text ledger."""
    # Imported here, not at module top: repro.analysis pulls in profiling,
    # which imports repro.obs — a top-level import would be circular.
    from repro.analysis import format_table

    sections = [
        format_table("Cost & energy ledger", ["Metric", "Value"],
                     _overview_rows(report)),
        format_table(
            "AI tax decomposition",
            ["Category", "Seconds", "Energy", "Dollars", "Events", "Share"],
            _category_rows(report),
        ),
    ]
    stage_rows = _stage_rows(report)
    if stage_rows:
        sections.append(format_table(
            "Per-stage attribution",
            ["Stage", "Category", "Seconds", "Energy", "Dollars"],
            stage_rows,
        ))
    query_rows = _query_rows(report)
    if query_rows:
        shown = len(query_rows)
        total = len(report.ledger.queries)
        title = (
            f"Per-query ledger (first {shown} of {total})"
            if total > shown else "Per-query ledger"
        )
        sections.append(format_table(
            title, ["Query", "Outcome", "Energy", "Dollars", "Top entry"],
            query_rows,
        ))
    sections.append(format_table(
        "Platform what-if repricing (same trace, Table 5 + roofline)",
        ["Platform", "Compute", "AI tax", "Compute $", "Total $", "Rank"],
        _what_if_rows(report),
    ))
    if report.fleet is not None:
        fleet = report.fleet
        sections.append(format_table(
            f"Fleet @ {fleet.target_queries:,} queries / "
            f"{fleet.window_seconds / 3600.0:g} h",
            ["Platform", "Servers", "Energy", "Fleet TCO", "AI tax $",
             "Tax share"],
            _fleet_rows(fleet),
        ))
    return "\n\n".join(sections) + "\n"


# -- canonical JSON -----------------------------------------------------------------

def _entry_dict(entry: LedgerEntry) -> Dict:
    return {
        "stage": entry.stage,
        "category": entry.category,
        "seconds": entry.seconds,
        "microjoules": entry.microjoules,
        "dollars": entry.dollars,
        "events": entry.events,
        "counters": entry.counters.as_dict(),
    }


def report_to_dict(report: CostReport) -> Dict:
    """The JSON-ready projection of a report (plain types only)."""
    ledger = report.ledger
    categories = {
        category: {
            "seconds": total.seconds,
            "microjoules": total.microjoules,
            "dollars": total.dollars,
            "events": total.events,
        }
        for category, total in ledger.category_totals().items()
    }
    stages: Dict[str, Dict] = {}
    for (stage, category), total in ledger.stage_totals().items():
        stages.setdefault(stage, {})[category] = {
            "seconds": total.seconds,
            "microjoules": total.microjoules,
            "dollars": total.dollars,
            "events": total.events,
        }
    payload = {
        "schema": SCHEMA,
        "source": ledger.source,
        "platform": ledger.platform,
        "n_queries": len(ledger.queries),
        "total_microjoules": ledger.total_microjoules,
        "total_dollars": ledger.total_dollars,
        "electricity_dollars": electricity_dollars(
            ledger.total_microjoules, ledger.parameters
        ),
        "tax_microjoules": ledger.tax_microjoules(),
        "tax_dollars": ledger.tax_dollars(),
        "categories": categories,
        "stages": stages,
        "queries": [
            {
                "trace_id": query.trace_id,
                "ordinal": query.ordinal,
                "outcome": query.outcome,
                "microjoules": query.microjoules,
                "dollars": query.dollars,
                "entries": [_entry_dict(entry) for entry in query.entries],
            }
            for query in ledger.queries[: report.query_limit]
        ],
        "queries_rendered": min(len(ledger.queries), report.query_limit),
        "what_if": [
            {
                "platform": row.platform,
                "compute_microjoules": row.compute_microjoules,
                "tax_microjoules": row.tax_microjoules,
                "total_microjoules": row.total_microjoules,
                "compute_dollars": row.compute_dollars,
                "tax_dollars": row.tax_dollars,
                "total_dollars": row.total_dollars,
            }
            for row in report.what_if
        ],
        "stage_compute_dollars": report.stage_dollars,
        "fleet": None,
    }
    if report.fleet is not None:
        fleet = report.fleet
        payload["fleet"] = {
            "target_queries": fleet.target_queries,
            "window_seconds": fleet.window_seconds,
            "rows": [
                {
                    "platform": row.platform,
                    "n_servers": row.n_servers,
                    "compute_microjoules": row.compute_microjoules,
                    "tax_microjoules": row.tax_microjoules,
                    "total_microjoules": row.total_microjoules,
                    "dollars": row.dollars,
                    "tax_dollars": row.tax_dollars,
                    "tax_share": row.tax_share,
                }
                for row in fleet.rows
            ],
        }
    return payload


def report_to_json(report: CostReport) -> str:
    """Canonical JSON (sorted keys, 2-space indent, trailing newline)."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
