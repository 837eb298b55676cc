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
the "AI tax" made a measured line item instead of noise.  The ledger is
the one account of discarded work: :func:`format_ledger` renders it as
the closing tables of ``repro trace-report``, and
:func:`fleet_cost_panel` totals it for ``repro fleet-report``.

The ledger prices the trace it was given on the CMP baseline it ran on.
Section 5's platform dollars (Figure 18, Tables 8/9) belong to
:class:`~repro.platforms.model.AcceleratorModel` x
:class:`~repro.datacenter.tco.TCOModel`.

**Exactness discipline.**  Energy is produced at exactly one rounding
point (:func:`repro.obs.pricing.energy_microjoules`) and totals are
integer sums of those values, so per-stage attributions sum *exactly* to
per-query and per-trace totals (``math.fsum`` over the integers is the
plain sum); dollars accumulate with ``math.fsum``.  Every input is a pure
function of seeds and virtual time, so the ledger is byte-identical
in line and on the forked fan-out, chaos replays included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis import format_table
from repro.obs.counters import (
    WorkCounters,
    counters_of,
    format_count,
    wasted_span_ids,
)
from repro.obs.pricing import (
    dollars_per_server_second,
    electricity_dollars,
    energy_microjoules,
)
from repro.obs.trace import KERNEL, QUERY, ROUTER, SERVICE, query_outcome, sort_key
from repro.platforms.roofline import KERNEL_PROFILES, attainable_for_intensity
from repro.platforms.spec import CMP

#: Ledger categories, in decomposition order.  ``COMPUTE`` is served work;
#: everything after it is the AI tax.
COMPUTE = "compute"
DEGRADED = "degraded"
RETRIES = "retries"
ROUTER_WAIT = "router_wait"
QUEUEING = "queueing"
TAX_CATEGORIES: Tuple[str, ...] = (DEGRADED, RETRIES, ROUTER_WAIT, QUEUEING)
CATEGORIES: Tuple[str, ...] = (COMPUTE,) + TAX_CATEGORIES

#: Fallback operational intensity when a span recorded flops but no bytes.
_DEFAULT_INTENSITY = 1.0

_GIGA = 1e9


# -- time models --------------------------------------------------------------------

def service_compute_seconds(counters: WorkCounters) -> float:
    """Modeled CMP seconds for a counter total (roofline at measured intensity)."""
    if counters.flops <= 0:
        return 0.0
    intensity = counters.intensity if counters.bytes else _DEFAULT_INTENSITY
    return counters.flops / _GIGA / attainable_for_intensity(intensity, CMP)


def kernel_compute_seconds(counters: WorkCounters, kernel: str) -> float:
    """Modeled CMP seconds of a Sirius Suite kernel span.

    Suite traces carry no service stage, so they are priced directly on
    the roofline: attainable GFLOP/s at the *measured* intensity (falling
    back to the kernel's analytic profile) and the kernel's CMP SIMD
    friendliness.
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
    return counters.flops / _GIGA / attainable_for_intensity(
        intensity, CMP, friendliness
    )


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


@dataclass(frozen=True)
class CategoryTotal:
    """Ledger-wide totals for one category (or one stage x category)."""

    seconds: float = 0.0
    microjoules: int = 0
    dollars: float = 0.0
    events: int = 0
    flops: int = 0

    def fold(self, entry: LedgerEntry) -> "CategoryTotal":
        return CategoryTotal(
            seconds=self.seconds + entry.seconds,
            microjoules=self.microjoules + entry.microjoules,
            dollars=self.dollars + entry.dollars,
            events=self.events + entry.events,
            flops=self.flops + entry.counters.flops,
        )


@dataclass(frozen=True)
class CostLedger:
    """The full attribution of one trace set (or replay) on the CMP baseline."""

    source: str    #: "spans" | "replay"
    queries: Tuple[QueryCost, ...]

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

    def entries(self, rate: float) -> Tuple[LedgerEntry, ...]:
        entries = []
        for (stage, category, kernel) in sorted(self.buckets):
            stall, counters, events = self.buckets[(stage, category, kernel)]
            if kernel:
                work = kernel_compute_seconds(counters, stage)
            else:
                work = service_compute_seconds(counters)
            seconds = stall + work
            if seconds == 0.0 and counters.invocations == 0 and events == 0:
                continue
            entries.append(
                LedgerEntry(
                    stage=stage,
                    category=category,
                    seconds=seconds,
                    microjoules=energy_microjoules(CMP, seconds),
                    dollars=seconds * rate,
                    counters=counters,
                    events=events,
                )
            )
        return tuple(entries)


def ledger_from_spans(spans: Sequence) -> CostLedger:
    """Fold a span forest into a :class:`CostLedger`.

    Seed-deterministic span fields are read (kinds, status, parent links,
    attributes — counters and ``virtual_seconds``) and one measured one: a
    live router span has no ``virtual_seconds``, so its queue ``wait`` is
    priced.  A timing-stripped export carries no wait, so the same chaos
    run ledgers byte-identically at every worker count.
    """
    rate = dollars_per_server_second(CMP)
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
                # A model replay's router span carries its virtual queue
                # wait; a live one only the measured ``wait``.
                virtual = span.attributes.get("virtual_seconds")
                seconds = float(span.wait if virtual is None else virtual)
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
                entries=acc.entries(rate),
            )
        )
    return CostLedger(source="spans", queries=tuple(queries))


# -- building a ledger from a cluster replay ----------------------------------------

def ledger_from_replay(result) -> CostLedger:
    """Price a :class:`~repro.serving.cluster.replay.ReplayResult`.

    Admitted queries attribute their sampled service seconds to
    ``compute`` and their queue wait to ``router_wait`` — the replay's
    wait *is* router queueing.  Shed
    arrivals become zero-second ``retries`` entries so rejected work is a
    visible (countable) line even though it burned no modeled joules.
    """
    rate = dollars_per_server_second(CMP)
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
        entries = [
            LedgerEntry(
                stage="service", category=COMPUTE,
                seconds=outcome.service,
                microjoules=energy_microjoules(CMP, outcome.service),
                dollars=outcome.service * rate,
                events=1,
            )
        ]
        if outcome.wait > 0.0:
            entries.append(
                LedgerEntry(
                    stage="ROUTER", category=ROUTER_WAIT,
                    seconds=outcome.wait,
                    microjoules=energy_microjoules(CMP, outcome.wait),
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
    return CostLedger(source="replay", queries=tuple(queries))


# -- the fleet report's panel ------------------------------------------------------

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
        "platform": CMP,
        "queries": len(ledger.queries),
        "microjoules": total_uj,
        "tco_dollars": ledger.total_dollars,
        "electricity_dollars": electricity_dollars(total_uj),
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
        panel["provisioned_replica_seconds"] = provisioned
        panel["provisioned_dollars"] = provisioned * dollars_per_server_second(CMP)
        panel["provisioned_microjoules"] = energy_microjoules(CMP, provisioned)
    return panel


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


def format_ledger(ledger: CostLedger) -> str:
    """The ledger as text: the AI-tax category split, then per (stage, category).

    The per-stage table's flops are the work counters the stage's entries
    carry, so discarded work (``degraded``/``retries``) shows as its own
    line next to the served ``compute`` it did not become.
    """
    grand = ledger.total_microjoules
    category_rows = []
    for category, total in ledger.category_totals().items():
        share = total.microjoules / grand if grand else 0.0
        category_rows.append([
            category,
            f"{total.seconds:.6f}",
            format_energy(total.microjoules),
            f"${total.dollars:.8f}",
            str(total.events),
            f"{share:.1%}",
        ])
    sections = [format_table(
        f"Cost ledger on {CMP}: compute vs AI tax "
        f"({len(ledger.queries)} queries)",
        ["Category", "Seconds", "Energy", "Dollars", "Events", "Share"],
        category_rows,
    )]
    stage_rows = [
        [
            stage, category,
            f"{total.seconds:.6f}",
            format_energy(total.microjoules),
            f"${total.dollars:.8f}",
            format_count(total.flops),
        ]
        for (stage, category), total in ledger.stage_totals().items()
    ]
    if stage_rows:
        sections.append(format_table(
            "Cost ledger per stage",
            ["Stage", "Category", "Seconds", "Energy", "Dollars", "Flops"],
            stage_rows,
        ))
    return "\n\n".join(sections)
