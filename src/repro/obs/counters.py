"""Work counters: flops / bytes / items attached to spans via ``annotate``.

The TPU paper's lesson is that raw latency numbers only become design
decisions once they are paired with *work* counters — how many arithmetic
operations and how many bytes of traffic a measurement covers — because
``flops / bytes`` (operational intensity) is the coordinate that places a
kernel on the roofline.  This module is the reproduction's counter layer:
hot paths report deterministic, analytic work counts through the ambient
:func:`repro.obs.context.annotate` channel, and they accumulate as
attributes on whatever span is innermost when the work happens — a Sirius
Suite kernel span under ``repro bench``, a service/attempt/section span
under a traced serving run.

**Counter semantics** (the conventions every hook documents next to its
formula):

- ``flops``   — floating-point (or, for branchy string kernels, per-
  character test) operations, from an analytic model of the algorithm —
  *not* hardware counters.  Dense kernels count real multiply/adds; string
  kernels (stemmer, regex) count one op per character examined, the unit
  the paper's SIMD-hostility argument is about.
- ``bytes``   — bytes of operand traffic the algorithm touches, assuming
  float64 operands (8 bytes) and counting each logical read/write once
  (no cache modelling).
- ``items``   — work items at the kernel's Table 4 granularity (frames,
  words, keypoints, ...).
- ``invocations`` — how many hot-path calls contributed to the span.

Counts are **deterministic**: pure functions of input shapes and seeds,
never of timing — so they are safe in the deterministic (timing-stripped)
span export, byte-identical at every worker count, and usable as
regression-gate metrics where wall clocks are not (see
:mod:`repro.obs.bench` and ``docs/BENCHMARKING.md``).

The hooks are free when disabled: :func:`record_work` returns immediately
unless a tracer is active on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

from repro.obs.context import current_tracer

#: Span attribute keys the counter layer owns, in export order.
FLOPS = "flops"
BYTES = "bytes"
ITEMS = "items"
INVOCATIONS = "invocations"
COUNTER_KEYS: Tuple[str, ...] = (FLOPS, BYTES, ITEMS, INVOCATIONS)


def record_work(flops: float = 0, mem_bytes: float = 0, items: float = 0) -> None:
    """Accumulate work counters on the innermost open span, if any.

    Values are floored to ints (counter discipline: exact integer work
    units keep the deterministic span export byte-stable — floats would
    drag platform-specific rounding into replay comparisons).  Each call
    also bumps ``invocations`` by one, so a span records how many hot-path
    calls its totals aggregate.  No-op without an active tracer.
    """
    tracer = current_tracer()
    if tracer is None:
        return
    if flops:
        tracer.annotate(FLOPS, int(flops), add=True)
    if mem_bytes:
        tracer.annotate(BYTES, int(mem_bytes), add=True)
    if items:
        tracer.annotate(ITEMS, int(items), add=True)
    tracer.annotate(INVOCATIONS, 1, add=True)


@dataclass(frozen=True)
class WorkCounters:
    """Aggregated counter totals, usually over a set of spans."""

    flops: int = 0
    bytes: int = 0
    items: int = 0
    invocations: int = 0

    @property
    def intensity(self) -> float:
        """Measured operational intensity (flops per byte); 0 if unknown."""
        return self.flops / self.bytes if self.bytes else 0.0

    def __add__(self, other: "WorkCounters") -> "WorkCounters":
        return WorkCounters(
            flops=self.flops + other.flops,
            bytes=self.bytes + other.bytes,
            items=self.items + other.items,
            invocations=self.invocations + other.invocations,
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            FLOPS: self.flops,
            BYTES: self.bytes,
            ITEMS: self.items,
            INVOCATIONS: self.invocations,
        }


def counters_of(attributes: Mapping[str, Any]) -> WorkCounters:
    """The :class:`WorkCounters` carried by one span's attribute dict."""
    return WorkCounters(
        flops=int(attributes.get(FLOPS, 0)),
        bytes=int(attributes.get(BYTES, 0)),
        items=int(attributes.get(ITEMS, 0)),
        invocations=int(attributes.get(INVOCATIONS, 0)),
    )


def aggregate_counters(spans: Iterable[Any]) -> WorkCounters:
    """Sum the counters over a span iterable (spans without counters add 0)."""
    total = WorkCounters()
    for span in spans:
        total = total + counters_of(span.attributes)
    return total


#: Attribute set by the resilience layer on attempt spans whose work was
#: discarded (failed/retried attempts, breaker fast-fails).
WASTED = "wasted"


def wasted_span_ids(spans: Iterable[Any]) -> frozenset:
    """Span ids whose recorded work was ultimately thrown away.

    A span is *wasted* when it — or any ancestor — is a failed or
    explicitly ``wasted``-tagged attempt (a retried try, a breaker
    fast-fail, a deadline overrun), an errored service, or a query that
    terminally failed.  Work under a successful attempt of a service that
    needed retries is *not* wasted; only the discarded tries are.  Purely
    structural (parent links + seed-deterministic attributes), so the
    classification is byte-identical at every worker count.
    """
    materialized = list(spans)
    by_id = {span.span_id: span for span in materialized}
    verdicts: Dict[str, bool] = {}

    def resolve(span: Any) -> bool:
        cached = verdicts.get(span.span_id)
        if cached is not None:
            return cached
        from repro.obs.trace import ATTEMPT, QUERY, SERVICE

        own = False
        if span.kind == ATTEMPT:
            own = bool(span.attributes.get(WASTED)) or span.status == "error"
        elif span.kind == SERVICE:
            own = span.status == "error"
        elif span.kind == QUERY:
            own = span.status == "error" or bool(span.attributes.get("failed"))
        if not own:
            parent = by_id.get(span.parent_id)
            if parent is not None:
                own = resolve(parent)
        verdicts[span.span_id] = own
        return own

    return frozenset(
        span.span_id for span in materialized if resolve(span)
    )


def kernel_counters(spans: Sequence[Any]) -> Dict[str, WorkCounters]:
    """Counter totals per Sirius Suite kernel, from its ``kernel`` spans.

    Kernel spans are emitted by :meth:`repro.suite.base.Kernel.execute`
    when a tracer is ambient; the kernel's short name rides in the
    ``kernel`` attribute.  Used by ``repro trace-report --roofline`` to
    place measured intensities on the :mod:`repro.platforms.roofline`
    model.
    """
    from repro.obs.trace import KERNEL

    grouped: Dict[str, WorkCounters] = {}
    for span in spans:
        if span.kind != KERNEL:
            continue
        name = span.attributes.get("kernel", span.name)
        grouped[name] = grouped.get(name, WorkCounters()) + counters_of(span.attributes)
    return grouped


def format_count(value: float) -> str:
    """Human-scaled count (``1.23M``); exact small ints stay exact."""
    if value == 0:
        return "0"
    magnitude = int(math.floor(math.log10(abs(value)) / 3)) if abs(value) >= 1 else 0
    magnitude = min(magnitude, 4)
    if magnitude == 0:
        return str(int(value)) if float(value).is_integer() else f"{value:.2f}"
    suffix = " KMGT"[magnitude]
    return f"{value / 1000 ** magnitude:.2f}{suffix}"
