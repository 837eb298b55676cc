"""Spans and tracers: the per-query execution tree of the serving stack.

One query produces one *trace*: a root ``query`` span, a child span per
service stage, a grandchild span per resilience retry attempt, and
``section`` spans for every algorithmic component inside the service call
(:func:`repro.obs.context.section`).  The paper's latency analyses
(Figure 8's tail variability, Figures 8b and 9's per-component breakdowns)
are projections of exactly this tree — it is the only timing record the
repository keeps — so the serving layer records it first-class instead of
reconstructing it from scalar stats.

**Deterministic identity.**  Trace and span IDs are *seeded hashes*, never
wall-clock or random: a trace ID is a function of ``(seed, ordinal)`` and a
span ID of ``(trace_id, parent_id, name, sibling-index)``.  Two chaos runs
with the same seed therefore produce byte-identical span forests (IDs,
parentage, attributes), whichever execution backend — serial, thread pool
or forked processes — happened to run them.  Only the
measured ``start``/``end`` wall times differ between runs, and the JSONL
exporter can strip those (``timing=False``) for replay comparison.

**Attribute discipline.**  ``Span.attributes`` must hold only values that
are deterministic under the run's seed (ordinals, attempt counts, breaker
states, fault kinds, virtual-latency seconds, error codes).  Measured wall
times live exclusively in ``start``/``end``/``wait`` so the deterministic
export stays byte-stable.  See ``docs/OBSERVABILITY.md``.

Spans cross process boundaries as plain picklable dataclasses: a worker
resumes a :class:`TraceContext`, records into its own :class:`Tracer`, and
ships the finished spans back on its stage outcome for the parent
to :meth:`~Tracer.adopt`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SiriusError, TraceError

#: Span kinds emitted by the serving stack.
QUERY = "query"      #: root span: one whole query through its plan
SERVICE = "service"  #: one service stage (ASR / classify / QA / IMM)
ATTEMPT = "attempt"  #: one resilience retry attempt (or breaker rejection)
SECTION = "section"  #: one component section (:func:`repro.obs.context.section`)
KERNEL = "kernel"    #: one Sirius Suite kernel execution (``repro bench``)
PARTIAL = "partial"  #: one streaming partial hypothesis (session ``partials()``)
ROUTER = "router"    #: time a query spent queued/being placed at the cluster router

_ID_BYTES = 8  # 16 hex chars — OpenTelemetry span-id width


def trace_id_for(seed: int, ordinal: int) -> str:
    """Deterministic trace ID for one query of one seeded run."""
    digest = hashlib.sha256(f"{seed}:{ordinal}:trace".encode()).hexdigest()
    return digest[: 2 * _ID_BYTES]


def span_id_for(trace_id: str, parent_id: str, name: str, index: int) -> str:
    """Deterministic span ID: a pure function of position in the tree.

    ``index`` is the 0-based count of earlier same-named siblings under the
    same parent, so repeated sections ("stemmer" called three times) stay
    distinct while remaining replay-stable.
    """
    digest = hashlib.sha256(
        f"{trace_id}:{parent_id}:{name}:{index}".encode()
    ).hexdigest()
    return digest[: 2 * _ID_BYTES]


@dataclass(frozen=True)
class TraceContext:
    """The picklable parent coordinates handed to a worker.

    Carried by :class:`~repro.serving.service.ServiceRequest` so a thread or
    forked process can resume the query's trace at the right parent span
    (see :meth:`Tracer.resume`).
    """

    seed: int
    trace_id: str
    span_id: str
    ordinal: int = 0


@dataclass
class Span:
    """One timed node of a query's execution tree.

    ``start``/``end`` are ``time.perf_counter`` readings (monotonic,
    comparable within a host — fork preserves the clock base on Linux);
    ``wait`` is the measured queueing delay before the work started, kept
    separate from service time.  Everything else is deterministic under the
    run's seed.
    """

    trace_id: str
    span_id: str
    parent_id: str            #: "" for a root span
    name: str
    kind: str = SERVICE
    service: str = ""         #: service label (e.g. "ASR") for service spans
    ordinal: int = 0          #: the owning query's stream ordinal
    start: float = 0.0
    end: float = 0.0
    wait: float = 0.0         #: measured queueing delay (seconds), 0 if none
    status: str = "ok"        #: "ok" | "error"
    error_code: str = ""      #: stable ``repro.errors`` code when failed
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Measured wall seconds between start and end (never negative)."""
        return max(self.end - self.start, 0.0)

    def __repr__(self) -> str:
        return (f"<Span {self.kind}:{self.name} {self.span_id} "
                f"{self.duration * 1000:.2f}ms {self.status}>")


def query_outcome(root: Span) -> str:
    """``"ok"`` / ``"degraded"`` / ``"failed"`` as a query's root span
    records it (a failed query is not also degraded)."""
    if root.status == "error" or root.attributes.get("failed"):
        return "failed"
    if root.attributes.get("degraded"):
        return "degraded"
    return "ok"


def sort_key(span: Span) -> Tuple[int, str, str]:
    """The canonical export order: by query, then trace, then span ID."""
    return (span.ordinal, span.trace_id, span.span_id)


@dataclass(frozen=True)
class _RemoteParent:
    """Synthetic stack frame for a parent span living in another process."""

    trace_id: str
    span_id: str
    ordinal: int
    attributes: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Creates, nests, and collects spans with deterministic identity.

    Thread-safe: the finished-span list and the sibling counters are shared
    under one lock, while the *open-span stack* is thread-local — each
    thread nests its own spans, which is exactly the execution model of the
    serving backends.  Same-named spans opened concurrently under the same
    parent would race for sibling indices; the serving stack never does
    that (parallel branches have distinct service names, and queries have
    distinct traces), and the contract is documented rather than policed.
    """

    def __init__(self, seed: int = 0, clock=time.perf_counter):
        self.seed = seed
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        #: (trace_id, parent_id, name) -> next sibling index.
        self._counters: Dict[Tuple[str, str, str], int] = {}
        self._local = threading.local()

    # -- stack plumbing ----------------------------------------------------------

    def _stack(self) -> List[Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span(self) -> Optional[Any]:
        """The innermost open span on this thread (or remote parent frame)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def context(self) -> Optional[TraceContext]:
        """Picklable coordinates of the innermost open span, for workers."""
        current = self.current_span()
        if current is None:
            return None
        return TraceContext(
            seed=self.seed,
            trace_id=current.trace_id,
            span_id=current.span_id,
            ordinal=current.ordinal,
        )

    @classmethod
    def resume(cls, context: TraceContext, clock=time.perf_counter) -> "Tracer":
        """A fresh tracer whose spans nest under a remote parent span.

        Used by the stage bracket when a stage runs away from its query's
        tracer (a branch thread, a streaming session): spans recorded here
        are shipped back and adopted by the parent tracer.
        Sibling counters start at zero, which is correct because the parent
        process never creates children under the handed-off span itself.
        """
        tracer = cls(seed=context.seed, clock=clock)
        tracer._stack().append(
            _RemoteParent(
                trace_id=context.trace_id,
                span_id=context.span_id,
                ordinal=context.ordinal,
            )
        )
        return tracer

    @contextmanager
    def reenter(self, span: Span) -> Iterator[Span]:
        """Re-activate an externally managed *open* span on this thread.

        A streaming session's service span stays open across many ``feed``
        calls that may land on different pool threads; ``begin_span``/
        ``end_span`` alone cannot express that (the open-span stack is
        thread-local).  ``reenter`` pushes the span as this thread's
        innermost frame for the duration of one synchronous work bout, so
        component sections, partial spans, and ``annotate`` calls nest under
        it.  The last bout may close the span with :meth:`end_span` (which
        pops this frame and collects it).  Sibling counters are shared
        tracer state, so indices stay unique across bouts and threads.
        """
        stack = self._stack()
        depth = len(stack)
        stack.append(span)
        try:
            yield span
        finally:
            if len(stack) > depth and stack[-1] is span:
                stack.pop()
            elif len(stack) != depth:
                raise TraceError(
                    f"reenter({span.name!r}) exited with unbalanced child "
                    "spans still open on this thread"
                )

    # -- span lifecycle ----------------------------------------------------------

    def _next_index(self, trace_id: str, parent_id: str, name: str) -> int:
        key = (trace_id, parent_id, name)
        with self._lock:
            index = self._counters.get(key, 0)
            self._counters[key] = index + 1
        return index

    def begin_trace(self, ordinal: int, name: str = "query") -> Span:
        """Open the root span of a new query trace on this thread."""
        trace_id = trace_id_for(self.seed, ordinal)
        index = self._next_index(trace_id, "", name)
        span = Span(
            trace_id=trace_id,
            span_id=span_id_for(trace_id, "", name, index),
            parent_id="",
            name=name,
            kind=QUERY,
            ordinal=ordinal,
            start=self._clock(),
        )
        self._stack().append(span)
        return span

    def begin_span(
        self,
        name: str,
        kind: str = SERVICE,
        service: str = "",
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a child of this thread's innermost span."""
        parent = self.current_span()
        if parent is None:
            raise TraceError(
                f"begin_span({name!r}) with no open trace on this thread; "
                "open a root span first (Tracer.begin_trace/trace) or resume "
                "a TraceContext"
            )
        index = self._next_index(parent.trace_id, parent.span_id, name)
        span = Span(
            trace_id=parent.trace_id,
            span_id=span_id_for(parent.trace_id, parent.span_id, name, index),
            parent_id=parent.span_id,
            name=name,
            kind=kind,
            service=service,
            ordinal=parent.ordinal,
            start=self._clock(),
            attributes=dict(attributes) if attributes else {},
        )
        self._stack().append(span)
        return span

    def end_span(self, span: Span, error: Optional[SiriusError] = None) -> Span:
        """Close ``span`` (must be this thread's innermost) and collect it;
        an ``error`` marks it failed with the error's stable code."""
        stack = self._stack()
        if not stack or stack[-1] is not span:
            open_name = stack[-1].name if stack else "<none>"
            raise TraceError(
                f"end_span({span.name!r}) out of order: innermost open span "
                f"on this thread is {open_name!r}"
            )
        stack.pop()
        span.end = self._clock()
        if error is not None:
            span.status = "error"
            span.error_code = getattr(error, "code", "SIRIUS")
        with self._lock:
            self._spans.append(span)
        return span

    @contextmanager
    def _closing(self, span: Span) -> Iterator[Span]:
        """Close ``span`` however the block exits; a library error marks it
        failed with its code."""
        error: Optional[SiriusError] = None
        try:
            yield span
        except SiriusError as exc:
            error = exc
            raise
        finally:
            self.end_span(span, error)

    def trace(self, ordinal: int, name: str = "query") -> ContextManager[Span]:
        """Context-managed root span (see :meth:`_closing`)."""
        return self._closing(self.begin_trace(ordinal, name=name))

    def span(
        self,
        name: str,
        kind: str = SERVICE,
        service: str = "",
        attributes: Optional[Dict[str, Any]] = None,
    ) -> ContextManager[Span]:
        """Context-managed child span (see :meth:`_closing`)."""
        return self._closing(
            self.begin_span(name, kind=kind, service=service, attributes=attributes)
        )

    def annotate(self, key: str, value: Any, add: bool = False) -> None:
        """Attach an attribute to this thread's innermost open span.

        A no-op with no open span (e.g. a service invoked outside any
        trace).  ``add=True`` accumulates numeric values.
        """
        current = self.current_span()
        if current is None:
            return
        attributes = current.attributes
        if add and key in attributes:
            attributes[key] = attributes[key] + value
        else:
            attributes[key] = value

    # -- collection --------------------------------------------------------------

    def adopt(self, spans: Sequence[Span]) -> None:
        """Merge finished spans recorded by a worker into this tracer."""
        if not spans:
            return
        with self._lock:
            self._spans.extend(spans)

    @property
    def spans(self) -> Tuple[Span, ...]:
        """Finished spans, in canonical (ordinal, trace, span-ID) order."""
        with self._lock:
            collected = list(self._spans)
        return tuple(sorted(collected, key=sort_key))

    def finish(self) -> Tuple[Span, ...]:
        """Finished spans in canonical order (alias kept for call sites
        that read better as "the trace is complete now")."""
        return self.spans


def collect_spans(responses: Sequence[Any]) -> Tuple[Span, ...]:
    """Gather the span forest carried by a stream of responses.

    Works on anything exposing a ``spans`` attribute (``SiriusResponse``,
    ``StageOutcome``); responses without spans contribute nothing.
    Returns canonical export order.
    """
    collected: List[Span] = []
    for response in responses:
        collected.extend(getattr(response, "spans", ()) or ())
    return tuple(sorted(collected, key=sort_key))
