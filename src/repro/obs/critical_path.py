"""Critical-path extraction and exact time attribution over span forests.

The serving layer records one span tree per query (PR 4); this module turns
those trees into the paper's Figure 9-style "where did the time go"
answers, with three properties the raw waterfall does not have:

- **Exact decomposition.**  Every span is attributed a *self* time (wall
  seconds of the root window no descendant accounts for), a *wait* time
  (its measured queueing delay, carved out of self), and an *exclusive
  virtual* time (injected fault latency charged to it but not to any
  child).  The attributions partition the trace exactly: summed over a
  trace they equal root duration + root virtual latency to float-sum
  tolerance, because self times come from a segment sweep that assigns
  each elementary time segment to exactly one span, and exclusive virtual
  telescopes (own minus children's own) to the root total by construction.
- **Critical path.**  The chain root → … → leaf obtained by repeatedly
  descending into the *dominating* child: the one whose clamped window
  ends last, with deterministic tie-breaks (subtree virtual latency, then
  canonical span order).  On a timing-stripped export all windows are
  empty, so the path degrades gracefully to "follow the virtual latency".
- **Replay stability.**  On deterministic (timing-stripped) exports every
  number in the report is a pure function of the seed — measured columns
  collapse to zero and virtual/structural columns are identical across
  serial, thread, and process backends, so the rendered report is
  byte-identical for the same chaos seed (the PR 4 replay guarantee,
  extended from span skeletons to analysis output).

Malformed forests (no spans, orphaned ``parent_id``, a trace with no
root) raise :class:`repro.errors.ObsError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import format_table
from repro.errors import ObsError
from repro.obs.trace import QUERY, SECTION, Span, sort_key

#: Span attribute carrying injected virtual latency (seconds, deterministic).
VIRTUAL_ATTR = "virtual_seconds"


def _own_virtual(span: Span) -> float:
    return float(span.attributes.get(VIRTUAL_ATTR, 0.0))


@dataclass(frozen=True)
class Attribution:
    """Exact time attribution for one span within its trace."""

    span: Span
    stage: str              #: service label, inherited from the nearest
                            #: service-labelled ancestor (root: span name)
    self_seconds: float     #: root-window time no descendant accounts for
    wait_seconds: float     #: measured queueing delay (carved out of self)
    virtual_seconds: float  #: exclusive injected virtual latency
    on_critical_path: bool

    @property
    def total_seconds(self) -> float:
        """Everything this span alone contributes to the trace total."""
        return self.self_seconds + self.wait_seconds + self.virtual_seconds


@dataclass(frozen=True)
class TraceAnalysis:
    """One query trace, decomposed."""

    trace_id: str
    ordinal: int
    root: Span
    attributions: Tuple[Attribution, ...]   #: canonical span order
    critical_path: Tuple[Span, ...]          #: root first

    @property
    def measured_seconds(self) -> float:
        """Measured root wall seconds (0.0 on timing-stripped exports)."""
        return self.root.duration

    @property
    def virtual_seconds(self) -> float:
        """Total injected virtual latency (the root carries the total)."""
        return _own_virtual(self.root)

    @property
    def total_seconds(self) -> float:
        """The trace's cost: measured wall time plus virtual latency."""
        return self.measured_seconds + self.virtual_seconds


class _Node:
    __slots__ = ("span", "children", "subtree_virtual", "stage")

    def __init__(self, span: Span):
        self.span = span
        self.children: List[_Node] = []
        self.subtree_virtual = 0.0
        self.stage = ""


def _build_trees(spans: Sequence[Span]) -> List[_Node]:
    """Parent-link the forest; one root node per trace, canonical order."""
    if not spans:
        raise ObsError("span forest contains no spans")
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)

    roots: List[_Node] = []
    for trace_id in sorted(by_trace, key=lambda t: sort_key(by_trace[t][0])):
        members = sorted(by_trace[trace_id], key=sort_key)
        nodes = {span.span_id: _Node(span) for span in members}
        trace_roots: List[_Node] = []
        for span in members:
            if not span.parent_id:
                trace_roots.append(nodes[span.span_id])
            elif span.parent_id in nodes:
                nodes[span.parent_id].children.append(nodes[span.span_id])
            else:
                raise ObsError(
                    f"trace {trace_id}: span {span.span_id} ({span.name!r}) "
                    f"references missing parent {span.parent_id}"
                )
        if not trace_roots:
            raise ObsError(f"trace {trace_id} has no root span")
        roots.extend(trace_roots)

    for root in roots:
        _fill_subtree_virtual(root)
        _fill_stages(root, root.span.name)
    return roots


def _fill_subtree_virtual(node: _Node) -> float:
    """A subtree's virtual total is the max of its own annotated total and
    the sum of its children's — the executor stamps totals on the root and
    per-stage shares below it, so ``max`` tolerates either convention."""
    total = sum(_fill_subtree_virtual(child) for child in node.children)
    node.subtree_virtual = max(_own_virtual(node.span), total)
    return node.subtree_virtual


def _fill_stages(node: _Node, inherited: str) -> None:
    """Attach each node to a *stage*: its service label, or the nearest
    service-labelled ancestor's — so attempt and section spans charge the
    service they ran inside, not a generic "attempt" bucket."""
    node.stage = node.span.service or inherited
    for child in node.children:
        _fill_stages(child, node.stage)


def _rank(node: _Node) -> Tuple[float, float, Tuple[int, str, str]]:
    """Dominance order among siblings: latest end, most virtual latency,
    then canonical span order — all deterministic under the run's seed."""
    return (node.span.end, node.subtree_virtual, sort_key(node.span))


def _sweep(
    node: _Node,
    window: Tuple[float, float],
    out: Dict[str, float],
) -> None:
    """Assign each elementary segment of ``window`` to exactly one span.

    ``window`` is the part of the parent's interval this node owns.  Child
    windows are clamped into it; segment boundaries are swept left to
    right, each segment going to the dominating covering child (recursing
    with that child's share) or to the node itself when no child covers
    it.  Every second of ``window`` lands in exactly one ``out`` bucket,
    which is what makes the decomposition exact.
    """
    lo, hi = window
    self_key = node.span.span_id
    out.setdefault(self_key, 0.0)
    clamped: List[Tuple[_Node, float, float]] = []
    for child in node.children:
        start = max(child.span.start, lo)
        end = min(child.span.end, hi)
        if end > start:
            clamped.append((child, start, end))
        else:
            # Zero-width child (timing-stripped or instantaneous): still
            # recurse so its own children get attribution entries.
            _sweep(child, (start, start), out)

    if not clamped:
        out[self_key] += hi - lo
        return

    bounds = sorted({lo, hi, *(s for _, s, _ in clamped), *(e for _, _, e in clamped)})
    shares: Dict[str, List[Tuple[float, float]]] = {}
    order: List[_Node] = []
    for left, right in zip(bounds[:-1], bounds[1:]):
        covering = [
            (child, start, end)
            for child, start, end in clamped
            if start <= left and right <= end
        ]
        if not covering:
            out[self_key] += right - left
            continue
        winner = max(covering, key=lambda item: _rank(item[0]))[0]
        key = winner.span.span_id
        if key not in shares:
            shares[key] = []
            order.append(winner)
        shares[key].append((left, right))

    for child in order:
        segments = shares[child.span.span_id]
        # Merge adjacent segments before recursing; the child sweeps each
        # owned interval independently.
        merged: List[Tuple[float, float]] = []
        for seg in segments:
            if merged and math.isclose(merged[-1][1], seg[0], abs_tol=0.0):
                merged[-1] = (merged[-1][0], seg[1])
            else:
                merged.append(seg)
        for interval in merged:
            _sweep(child, interval, out)
    # Children that never won a segment still need entries (and their own
    # descendants may carry virtual latency).
    for child, start, _ in clamped:
        if child.span.span_id not in shares:
            _sweep(child, (start, start), out)


def _critical_path(root: _Node) -> Tuple[Span, ...]:
    path = [root.span]
    node = root
    while node.children:
        node = max(node.children, key=_rank)
        path.append(node.span)
    return tuple(path)


def analyze_trace(root: _Node) -> TraceAnalysis:
    self_times: Dict[str, float] = {}
    span = root.span
    _sweep(root, (span.start, span.end), self_times)
    path = _critical_path(root)
    on_path = {s.span_id for s in path}

    attributions: List[Attribution] = []
    stack = [root]
    flat: List[_Node] = []
    while stack:
        node = stack.pop()
        flat.append(node)
        stack.extend(node.children)
    for node in sorted(flat, key=lambda n: sort_key(n.span)):
        raw_self = self_times.get(node.span.span_id, 0.0)
        wait = min(float(node.span.wait), raw_self)
        children_virtual = sum(_own_virtual(c.span) for c in node.children)
        exclusive_virtual = _own_virtual(node.span) - children_virtual
        attributions.append(
            Attribution(
                span=node.span,
                stage=node.stage,
                self_seconds=raw_self - wait,
                wait_seconds=wait,
                virtual_seconds=exclusive_virtual,
                on_critical_path=node.span.span_id in on_path,
            )
        )
    return TraceAnalysis(
        trace_id=span.trace_id,
        ordinal=span.ordinal,
        root=span,
        attributions=tuple(attributions),
        critical_path=path,
    )


def analyze_forest(spans: Sequence[Span]) -> List[TraceAnalysis]:
    """Decompose every trace in a span forest (canonical trace order).

    Raises :class:`ObsError` on an empty or structurally malformed forest.
    """
    return [analyze_trace(root) for root in _build_trees(spans)]


def section_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Exclusive seconds per ``section`` span name, pooled over a forest.

    The component breakdowns of Figures 8b and 9: each section's self time
    from :func:`analyze_forest` — the time no nested section accounts for —
    summed per name over every trace the forest holds.
    """
    seconds: Dict[str, float] = {}
    for analysis in analyze_forest(spans):
        for attribution in analysis.attributions:
            if attribution.span.kind == SECTION:
                name = attribution.span.name
                seconds[name] = seconds.get(name, 0.0) + attribution.self_seconds
    return seconds


# -- tail attribution ---------------------------------------------------------------


@dataclass(frozen=True)
class StageShare:
    """One stage's share of attributed time over a set of traces."""

    stage: str
    self_seconds: float
    wait_seconds: float
    virtual_seconds: float
    critical_hits: int  #: traces whose critical path passes through this stage

    @property
    def total_seconds(self) -> float:
        return self.self_seconds + self.wait_seconds + self.virtual_seconds


@dataclass(frozen=True)
class TailAttribution:
    """Which stage the tail pays for: per-stage shares, overall vs tail."""

    quantile: float
    threshold_seconds: float            #: nearest-rank quantile of trace totals
    n_traces: int
    n_tail_traces: int
    overall: Tuple[StageShare, ...]     #: sorted by descending total
    tail: Tuple[StageShare, ...]        #: same, over tail traces only


def _shares(analyses: Sequence[TraceAnalysis]) -> Tuple[StageShare, ...]:
    buckets: Dict[str, List[float]] = {}
    hits: Dict[str, int] = {}
    for analysis in analyses:
        path_stages = {
            a.stage for a in analysis.attributions if a.on_critical_path
        }
        for stage in path_stages:
            hits[stage] = hits.get(stage, 0) + 1
        for attribution in analysis.attributions:
            stage = attribution.stage
            bucket = buckets.setdefault(stage, [0.0, 0.0, 0.0])
            bucket[0] += attribution.self_seconds
            bucket[1] += attribution.wait_seconds
            bucket[2] += attribution.virtual_seconds
    shares = [
        StageShare(
            stage=stage,
            self_seconds=bucket[0],
            wait_seconds=bucket[1],
            virtual_seconds=bucket[2],
            critical_hits=hits.get(stage, 0),
        )
        for stage, bucket in buckets.items()
    ]
    shares.sort(key=lambda s: (-s.total_seconds, s.stage))
    return tuple(shares)


def nearest_rank(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank quantile (deterministic, no interpolation)."""
    if not sorted_values:
        raise ObsError("cannot take a quantile of zero traces")
    index = max(int(math.ceil(quantile * len(sorted_values))) - 1, 0)
    return sorted_values[min(index, len(sorted_values) - 1)]


def tail_attribution(
    analyses: Sequence[TraceAnalysis], quantile: float = 0.99
) -> TailAttribution:
    """Attribute overall and tail (≥ the ``quantile`` trace total) time."""
    if not analyses:
        raise ObsError("span forest contains no query traces")
    totals = sorted(a.total_seconds for a in analyses)
    threshold = nearest_rank(totals, quantile)
    tail = [a for a in analyses if a.total_seconds >= threshold]
    return TailAttribution(
        quantile=quantile,
        threshold_seconds=threshold,
        n_traces=len(analyses),
        n_tail_traces=len(tail),
        overall=_shares(analyses),
        tail=_shares(tail),
    )


# -- rendering ----------------------------------------------------------------------


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}"


def format_critical_path_report(
    spans: Sequence[Span], quantile: float = 0.99, paths: int = 3
) -> str:
    """The ``repro trace-report --critical-path`` text.

    Deterministic: on a timing-stripped export every number is a pure
    function of the run's seed, so the text is byte-identical across
    execution backends.  ``paths`` caps how many individual critical paths
    are printed (slowest traces first); the attribution tables always
    cover the whole forest.
    """
    analyses = analyze_forest(spans)
    queries = [a for a in analyses if a.root.kind == QUERY] or analyses
    report = tail_attribution(queries, quantile=quantile)

    lines: List[str] = []
    check = math.fsum(
        attribution.total_seconds
        for analysis in queries
        for attribution in analysis.attributions
    )
    total = math.fsum(analysis.total_seconds for analysis in queries)
    lines.append(
        f"Critical-path attribution over {report.n_traces} queries "
        f"(total {_ms(total)} ms, attributed {_ms(check)} ms)"
    )
    lines.append("")

    def table(title: str, shares: Sequence[StageShare], n: int) -> str:
        rows = [
            [
                share.stage,
                _ms(share.self_seconds),
                _ms(share.wait_seconds),
                _ms(share.virtual_seconds),
                _ms(share.total_seconds),
                f"{share.critical_hits}/{n}",
            ]
            for share in shares
        ]
        return format_table(
            title,
            ["Stage", "Self (ms)", "Wait (ms)", "Virtual (ms)",
             "Total (ms)", "On path"],
            rows,
        )

    lines.append(table("Per-stage attribution (all queries)",
                       report.overall, report.n_traces))
    lines.append("")
    percent = f"p{report.quantile * 100:g}"
    lines.append(table(
        f"Tail attribution ({percent} ≥ {_ms(report.threshold_seconds)} ms, "
        f"{report.n_tail_traces} queries)",
        report.tail, report.n_tail_traces))
    lines.append("")

    slowest = sorted(
        queries, key=lambda a: (-a.total_seconds, sort_key(a.root))
    )[: max(paths, 0)]
    for analysis in slowest:
        steps = " -> ".join(
            f"{span.name}" + (f" [{span.service}]" if span.service else "")
            for span in analysis.critical_path
        )
        lines.append(
            f"query #{analysis.ordinal}  total {_ms(analysis.total_seconds)} ms"
            f"  (virtual {_ms(analysis.virtual_seconds)} ms): {steps}"
        )
    return "\n".join(lines).rstrip()
