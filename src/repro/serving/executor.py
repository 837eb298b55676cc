"""Plan executor: runs each query through the services, and fans queries out.

One executor replaces the three ad-hoc execution paths the monolithic
pipeline accumulated (serial branching, the VIQ thread fork, the
list-comprehension over queries) with one walk over the paper's fixed
sequence (Figure 2, Table 1):

- **per query** (:meth:`PlanExecutor.run`): ASR, then classify, then IMM
  when the query carries an image, then QA unless the query is a pure
  voice command — in that order, one stage at a time;
- **across queries** (:meth:`PlanExecutor.run_all`): whole queries run in
  line at one worker and fan out on forked processes at more.

Instrumentation is uniform: every stage is reported as a
:class:`~repro.serving.service.StageOutcome` by :func:`run_stage`, the one
stage bracket — called in place by the walk, and once per work bout by a
streaming session ahead of ``run()`` — and enters the query's accounting
through the single :meth:`PlanExecutor._absorb`.

**Graceful degradation.**  A stage failure (any :class:`~repro.errors.
SiriusError`, typically a coded :class:`~repro.errors.ServiceError` from a
:class:`~repro.serving.resilience.ResilientService` wrapper) is classified
by which service failed:

- **IMM** — the VIQ query degrades to a VQ answer (no image match);
- **QA** — a low-confidence fallback response is returned (transcript
  preserved, empty answer);
- **ASR / classify** — fatal: nothing downstream can run, so the query
  fails (:meth:`run` re-raises; :meth:`run_all` with ``on_error="degrade"``
  returns a failed response instead so one bad query cannot abort a
  stream).

Every degraded or failed response carries ``degraded=True`` and a
``failures`` map of service label → stable error code.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.query import IPAQuery, QueryType, SiriusResponse
from repro.errors import ConfigurationError, SiriusError
from repro.obs.context import section, use_tracer
from repro.obs.timeseries import RollupStore, record_responses
from repro.obs.trace import ROUTER, SERVICE, Span, Tracer
from repro.serving.backends import map_processes
from repro.serving.faults import drain_virtual_seconds
from repro.serving.service import (
    ASR,
    CLASSIFY,
    IMM,
    QA,
    Service,
    ServiceRequest,
    StageOutcome,
)

#: Services whose failure fails the whole query (everything hangs off the
#: transcript and its classification); QA and IMM failures degrade instead.
FATAL_SERVICES = frozenset({ASR, CLASSIFY})

#: Accepted ``on_error`` modes for :meth:`PlanExecutor.run` / ``run_all``.
RAISE = "raise"
DEGRADE = "degrade"


@dataclass
class ExecutionState:
    """Per-query scratchpad the walk reads and each stage writes (only the
    query, its clock start and its ordinal are given; the rest is written)."""

    query: IPAQuery
    wall_start: float
    ordinal: int
    service_seconds: Dict[str, float] = field(default_factory=dict, init=False)
    results: Dict[str, Any] = field(default_factory=dict, init=False)
    transcript: str = field(default="", init=False)
    classification: Any = field(default=None, init=False)
    #: Failing service label -> stable error code, in failure order.
    failures: Dict[str, str] = field(default_factory=dict, init=False)
    #: The fatal (ASR/classify) error, when one occurred.
    fatal_error: Optional[SiriusError] = field(default=None, init=False)
    #: Injected virtual latency accumulated across this query's stages.
    virtual_seconds: float = field(default=0.0, init=False)
    #: This query's tracer and open root span (both ``None`` when the
    #: executor runs untraced).
    tracer: Any = field(default=None, init=False)
    root_span: Any = field(default=None, init=False)


@dataclass(frozen=True)
class RouterTicket:
    """A cluster router's placement record for one query.

    Handed to :meth:`PlanExecutor.run` by :class:`repro.serving.cluster.
    fleet.Cluster` so time spent *queued at the router* is attributed to a
    dedicated ``router`` span instead of being folded into the first
    service's self time (or lost entirely).  ``policy``/``replica``/
    ``queue_depth`` are pure functions of ``(seed, ordinal)`` and live in
    span attributes; ``enqueued_at`` is a measured ``perf_counter`` reading
    and only ever feeds the span's timing fields, so timing-stripped
    exports stay byte-identical at every worker count.
    """

    policy: str                        #: routing policy name (e.g. "power-of-two")
    replica: int                       #: chosen replica index
    n_replicas: int = 1                #: fleet size at assignment time
    queue_depth: int = 0               #: chosen replica's depth seen by the router
    enqueued_at: Optional[float] = None  #: perf_counter at router assignment


def _check_on_error(on_error: str) -> None:
    if on_error not in (RAISE, DEGRADE):
        raise ConfigurationError(
            f"on_error must be {RAISE!r} or {DEGRADE!r}, got {on_error!r}"
        )


def begin_service_span(tracer: Tracer, service: Service) -> Span:
    """Open one stage's ``service`` span under this thread's innermost span."""
    return tracer.begin_span(service.name, kind=SERVICE, service=service.label)


def end_span(
    tracer: Tracer, span: Span, error: Optional[SiriusError], virtual: float
) -> None:
    """Close a service or root span: virtual latency charged under it
    becomes its ``virtual_seconds``, a failure its status and stable code."""
    if virtual > 0:
        span.attributes["virtual_seconds"] = virtual
    tracer.end_span(span, error)


def run_stage(
    service: Service,
    call: Callable[[], Any],
    record: bool,
    tracer: Optional[Tracer] = None,
) -> StageOutcome:
    """The stage bracket: run ``call`` for ``service`` and account for it.

    Opens the stage's ``service`` span on ``tracer`` (``None`` when
    untraced, or when a streaming session holds one span open across its
    bouts), drains the virtual-latency ledger (a leak from an earlier
    failed call must not be charged here), runs ``call`` inside
    ``section(service.name)`` when the stage is recorded, captures a
    :class:`~repro.errors.SiriusError` instead of raising, drains again and
    closes the span.  ``seconds`` is one clock bracket around ``call`` when
    the stage is recorded (0 otherwise) plus the virtual latency charged
    meanwhile.  The walk's stages and session bouts both account through
    here.
    """
    span = begin_service_span(tracer, service) if tracer is not None else None
    drain_virtual_seconds()
    payload: Any = None
    error: Optional[SiriusError] = None
    with section(service.name) if record else nullcontext():
        start = time.perf_counter()
        try:
            payload = call()
        except SiriusError as exc:
            error = exc
        elapsed = time.perf_counter() - start
    virtual = drain_virtual_seconds()
    if span is not None:
        end_span(tracer, span, error, virtual)
    return StageOutcome(
        payload=payload,
        error=error,
        seconds=(elapsed if record else 0.0) + virtual,
        virtual_seconds=virtual,
    )


def begin_router_span(tracer: Tracer, ticket: RouterTicket) -> Span:
    """Open the ``router`` span of one placement (every attribute is
    deterministic under the run's seed)."""
    return tracer.begin_span(
        "router",
        kind=ROUTER,
        service="ROUTER",
        attributes={
            "policy": ticket.policy,
            "replica": ticket.replica,
            "n_replicas": ticket.n_replicas,
            "queue_depth": ticket.queue_depth,
        },
    )


def failed_response(
    query: IPAQuery,
    failures: Dict[str, str],
    transcript: str = "",
    service_seconds: Optional[Dict[str, float]] = None,
    wall_seconds: float = 0.0,
    spans: Tuple[Any, ...] = (),
) -> SiriusResponse:
    """The response of a query with nothing usable (ASR or classification
    died, or the router shed it), classed by the only evidence left: an
    attached image."""
    return SiriusResponse(
        query_type=(
            QueryType.VOICE_IMAGE_QUERY
            if query.image is not None
            else QueryType.VOICE_COMMAND
        ),
        transcript=transcript,
        service_seconds=service_seconds if service_seconds is not None else {},
        wall_seconds=wall_seconds,
        degraded=True,
        failures=failures,
        spans=spans,
    )


class PlanExecutor:
    """Walks each query through a registry of the four services."""

    def __init__(
        self,
        services: Dict[str, Service],
        trace_seed: Optional[int] = None,
        metrics: Optional[RollupStore] = None,
    ):
        self.services = dict(services)
        #: ``None`` disables tracing; any int seeds deterministic span IDs
        #: (chaos replays with the same seed export identical span forests).
        self.trace_seed = trace_seed
        #: Optional :class:`~repro.obs.timeseries.RollupStore` that
        #: ``run_all`` records *measured* e2e / per-stage seconds into, on
        #: the stream-ordinal clock, from the returned responses.
        self.metrics = metrics
        for name in (ASR, CLASSIFY, IMM, QA):
            if name not in self.services:
                raise ConfigurationError(
                    f"the query walk needs service {name!r}, which is not "
                    f"registered (have: {sorted(self.services)})"
                )

    def warmup(self) -> None:
        """Warm every registered service (index builds, lazy caches)."""
        for service in self.services.values():
            service.warmup()

    # -- per-query execution -----------------------------------------------------

    def run(
        self,
        query: IPAQuery,
        ordinal: int = 0,
        on_error: str = RAISE,
        precomputed: Optional[Dict[str, Any]] = None,
        wall_start: Optional[float] = None,
        router_ticket: Optional[RouterTicket] = None,
    ) -> SiriusResponse:
        """Walk one query through the services and assemble the response.

        ASR, then classify, then IMM when the query carries an image, then
        QA unless the query is a pure voice command (an action with no
        image, echoed back to the device).

        A degradable (QA/IMM) failure always yields a degraded response; a
        fatal (ASR/classify) failure re-raises under ``on_error="raise"``
        (the default) or returns a failed response under ``"degrade"``.

        ``precomputed`` maps service names to :class:`~repro.serving.
        service.StageOutcome` objects a streaming session already
        produced: those stages are *absorbed* (spans adopted, failures
        classified) instead of executed, and the rest of
        the walk runs normally — how the gateway fires classify/QA/IMM off
        a finished ASR session.  ``wall_start`` backdates the query's clock
        (and its root span) to when the session opened, so ``wall_seconds``
        and time-to-first-partial measure from first audio, not from
        ``run()``.

        ``router_ticket`` records that a cluster router queued and placed
        this query: the clock (and root span) is backdated to the ticket's
        ``enqueued_at``, and the assignment-to-dispatch delay is emitted as
        a dedicated ``router`` span (stage label ``ROUTER``, the whole
        window counted as wait) so queue time at the router is never folded
        into any service's self time.
        """
        _check_on_error(on_error)
        precomputed = precomputed or {}
        if (
            wall_start is None
            and router_ticket is not None
            and router_ticket.enqueued_at is not None
        ):
            # The query's clock starts when the router accepted it, so
            # wall_seconds covers the queueing delay the user experienced.
            wall_start = router_ticket.enqueued_at
        state = ExecutionState(
            query=query,
            wall_start=wall_start if wall_start is not None else time.perf_counter(),
            ordinal=ordinal,
        )
        self._begin_trace(state)
        if wall_start is not None and state.root_span is not None:
            # The root span's measured window starts at session open; its
            # identity is unaffected (IDs are position-derived, not timed).
            state.root_span.start = wall_start
        if router_ticket is not None and state.tracer is not None:
            self._record_router(state, router_ticket)
        ambient = (
            use_tracer(state.tracer) if state.tracer is not None else nullcontext()
        )
        try:
            with ambient:
                self._stage(ASR, state, precomputed, query.audio)
                self._stage(CLASSIFY, state, precomputed, state.transcript)
                if query.image is not None:
                    self._stage(IMM, state, precomputed, query.image)
                if not (state.classification.is_action and query.image is None):
                    self._stage(QA, state, precomputed, state.transcript)
        except SiriusError:
            if on_error == RAISE or state.fatal_error is None:
                raise
        return self._build_response(state)

    def _record_router(self, state: ExecutionState, ticket: RouterTicket) -> None:
        """Materialize the router's placement as a span.

        The span covers ``[enqueued_at, dispatch]`` — the real queue window
        — with the *whole* window recorded as wait, so the critical-path
        analyzer (which clamps wait to measured self time) attributes it to
        a ``ROUTER`` stage of its own.  All attributes are deterministic
        under the run's seed; only ``start``/``end``/``wait`` are measured.
        The cluster records the wait as a metric parent-side, from this
        span.
        """
        span = begin_router_span(state.tracer, ticket)
        if ticket.enqueued_at is not None:
            span.start = ticket.enqueued_at
        state.tracer.end_span(span)
        span.wait = span.duration

    def _begin_trace(self, state: ExecutionState) -> None:
        """Open the query's root span when tracing is enabled.

        Each query gets its *own* tracer (IDs are deterministic functions of
        ``(trace_seed, ordinal)``, so per-query tracers and one shared
        tracer would mint identical spans) — which keeps the whole tracer
        local to a worker when ``run`` executes in another thread or process.
        """
        if self.trace_seed is None:
            return
        state.tracer = Tracer(seed=self.trace_seed)
        state.root_span = state.tracer.begin_trace(state.ordinal)

    def _stage(
        self,
        name: str,
        state: ExecutionState,
        precomputed: Dict[str, StageOutcome],
        payload: Any,
    ) -> None:
        """One step of the walk: absorb the stage's precomputed outcome, or
        run it in place under the query's own tracer with ``payload`` as
        its request.  Classification is glue, not one of the paper's
        measured services: it runs un-sectioned and credits no
        ``service_seconds``."""
        outcome = precomputed.get(name)
        if outcome is None:
            service = self.services[name]
            request = ServiceRequest(
                payload=payload, query=state.query, ordinal=state.ordinal
            )
            outcome = run_stage(
                service, lambda: service.invoke(request), name != CLASSIFY,
                state.tracer,
            )
        self._absorb(name, state, outcome)

    def _absorb(
        self, name: str, state: ExecutionState, outcome: StageOutcome
    ) -> None:
        """Fold one stage's outcome into the query's accounting.

        The single entry point for stage results, wherever they came from:
        adopt spans recorded off the query's tracer (a failed stage keeps
        the sections it got through, as it does when it runs under the
        query's own), add virtual latency, classify a captured failure
        (fatal services re-raise, the others degrade), and otherwise credit
        ``service_seconds`` and publish the payload to later stages.
        """
        label = self.services[name].label
        if state.tracer is not None:
            state.tracer.adopt(outcome.spans)
        state.virtual_seconds += outcome.virtual_seconds
        if outcome.error is not None:
            state.failures[label] = outcome.error.code
            if name in FATAL_SERVICES:
                state.fatal_error = outcome.error
                raise outcome.error
            return
        if name != CLASSIFY:
            state.service_seconds[label] = outcome.seconds
        state.results[name] = outcome.payload
        if name == ASR:
            state.transcript = outcome.payload.text
        elif name == CLASSIFY:
            state.classification = outcome.payload

    def _build_response(self, state: ExecutionState) -> SiriusResponse:
        """Assemble the response; when traced, close and attach the trace."""
        response = self._assemble_response(state)
        if state.tracer is not None:
            root = state.root_span
            root.attributes["query_type"] = response.query_type.value
            if response.degraded:
                root.attributes["degraded"] = True
            if response.failed:
                root.attributes["failed"] = True
            end_span(state.tracer, root, state.fatal_error, state.virtual_seconds)
            response.spans = state.tracer.finish()
        return response

    def _assemble_response(self, state: ExecutionState) -> SiriusResponse:
        wall = time.perf_counter() - state.wall_start + state.virtual_seconds
        failures = dict(state.failures)
        degraded = bool(failures)
        if state.fatal_error is not None:
            return failed_response(
                state.query,
                failures,
                transcript=state.transcript,
                service_seconds=state.service_seconds,
                wall_seconds=wall,
            )
        qa_result = state.results.get(QA)
        qa_failed = "QA" in failures
        if qa_result is None and not qa_failed:
            # No QA stage ran: a pure voice command echoed back to the device.
            return SiriusResponse(
                query_type=QueryType.VOICE_COMMAND,
                transcript=state.transcript,
                action=state.transcript,
                service_seconds=state.service_seconds,
                wall_seconds=wall,
                degraded=degraded,
                failures=failures,
            )
        match = state.results.get(IMM)
        if state.query.image is None:
            query_type = QueryType.VOICE_QUERY
        elif "IMM" in failures:
            # The image-match branch failed: serve the VIQ as a plain VQ.
            query_type = QueryType.VOICE_QUERY
        else:
            query_type = QueryType.VOICE_IMAGE_QUERY
        return SiriusResponse(
            query_type=query_type,
            transcript=state.transcript,
            answer=qa_result.answer_text if qa_result is not None else "",
            matched_image=match.image_name if match is not None else "",
            service_seconds=state.service_seconds,
            filter_hits=qa_result.stats.total_hits if qa_result is not None else 0,
            wall_seconds=wall,
            degraded=degraded,
            failures=failures,
        )

    # -- cross-query execution ---------------------------------------------------

    def run_all(
        self,
        queries: Sequence[IPAQuery],
        *,
        workers: int = 1,
        on_error: str = RAISE,
    ) -> List[SiriusResponse]:
        """Process a stream of queries.

        One worker (the default) is the classic sequential loop over
        queries and the reference every fan-out reproduces; more map whole
        queries over a forked pool of ``workers`` processes.  Each query is
        stamped with its stream ``ordinal``, the key the resilience layer
        uses to replay faults identically at every worker count.
        ``on_error="degrade"`` turns fatal per-query failures into failed
        responses instead of aborting the stream.  Metrics are recorded
        here, in the parent, from the responses: what a forked worker
        observes would stay in the worker.
        """
        _check_on_error(on_error)

        def run_one(item) -> SiriusResponse:
            index, query = item
            return self.run(query, ordinal=index, on_error=on_error)

        responses = map_processes(run_one, list(enumerate(queries)), workers)
        if self.metrics is not None:
            record_responses(self.metrics, responses)
        return responses


def build_executor(
    decoder,
    classifier,
    qa_engine,
    image_database,
) -> PlanExecutor:
    """Wrap pipeline components in services and assemble an (untraced)
    executor."""
    from repro.serving.service import (
        AsrService,
        ClassifierService,
        ImmService,
        QaService,
    )

    services: Dict[str, Service] = {
        ASR: AsrService(decoder),
        CLASSIFY: ClassifierService(classifier),
        QA: QaService(qa_engine),
        IMM: ImmService(image_database),
    }
    return PlanExecutor(services)
