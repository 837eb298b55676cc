"""Plan executor: runs query plans over services with pluggable backends.

One executor replaces the three ad-hoc execution paths the monolithic
pipeline accumulated (serial branching, the VIQ thread fork, the
list-comprehension ``process_all``) with a single walk over a
:class:`~repro.serving.plan.QueryPlan`:

- **per-query** (:meth:`PlanExecutor.run`): stages execute level by level;
  when a level holds several runnable stages and ``parallel_branches`` is
  set, the branches overlap on threads (the Lucida-style VIQ
  optimization), each under its own resumed tracer, adopted afterwards.
- **across queries** (:meth:`PlanExecutor.run_all`): whole queries fan out
  over any registered execution backend (``serial`` / ``thread`` /
  ``process``).

Instrumentation is uniform: every stage is reported as a
:class:`~repro.serving.service.StageOutcome` by :func:`run_stage`, the one
stage bracket — called in place for a serial stage, through
:func:`run_handed_off` on a pool thread for a threaded branch, and once
per work bout by a streaming session ahead of ``run()`` — and enters the
query's accounting through the single :meth:`PlanExecutor._absorb`.

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
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.query import IPAQuery, QueryType, SiriusResponse
from repro.errors import ConfigurationError, SiriusError
from repro.obs.context import section, use_tracer
from repro.obs.timeseries import (
    DEPTH_METRIC,
    ROUTER_WAIT_METRIC,
    WAIT_METRIC,
    RollupStore,
    record_responses,
)
from repro.obs.trace import ROUTER, SERVICE, Span, Tracer
from repro.serving.backends import get_backend
from repro.serving.faults import drain_virtual_seconds
from repro.serving.plan import QueryPlan, PlanStage, full_plan
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
    """Per-query scratchpad the guards and request builders read."""

    query: IPAQuery
    wall_start: float
    ordinal: int = 0
    service_seconds: Dict[str, float] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    transcript: str = ""
    classification: Any = None
    #: Failing service label -> stable error code, in failure order.
    failures: Dict[str, str] = field(default_factory=dict)
    #: The fatal (ASR/classify) error, when one occurred.
    fatal_error: Optional[SiriusError] = None
    #: Injected virtual latency accumulated across this query's stages.
    virtual_seconds: float = 0.0
    #: This query's tracer / open root span / picklable parent coordinates
    #: (all ``None`` when the executor runs untraced).
    tracer: Any = None
    root_span: Any = None
    trace_ctx: Any = None


def _asr_request(state: ExecutionState) -> ServiceRequest:
    return ServiceRequest(
        payload=state.query.audio, query=state.query, ordinal=state.ordinal,
        trace=state.trace_ctx, admitted_at=time.perf_counter(),
    )


def _text_request(state: ExecutionState) -> ServiceRequest:
    return ServiceRequest(
        payload=state.transcript, query=state.query, ordinal=state.ordinal,
        trace=state.trace_ctx, admitted_at=time.perf_counter(),
    )


def _image_request(state: ExecutionState) -> ServiceRequest:
    return ServiceRequest(
        payload=state.query.image, query=state.query, ordinal=state.ordinal,
        trace=state.trace_ctx, admitted_at=time.perf_counter(),
    )


_REQUEST_BUILDERS: Dict[str, Callable[[ExecutionState], ServiceRequest]] = {
    ASR: _asr_request,
    CLASSIFY: _text_request,
    QA: _text_request,
    IMM: _image_request,
}


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
    exports stay byte-identical across backends.
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
    wait: float = 0.0,
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
    meanwhile; ``wait`` is a hand-off's measured admission-to-start delay,
    stamped on the span and never added to ``seconds``.  Serial stages,
    threaded branches and session bouts all account through here.
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
        span.wait = wait
        end_span(tracer, span, error, virtual)
    return StageOutcome(
        payload=payload,
        error=error,
        seconds=(elapsed if record else 0.0) + virtual,
        virtual_seconds=virtual,
        wait_seconds=wait,
    )


def run_handed_off(
    service: Service, request: ServiceRequest, record: bool
) -> StageOutcome:
    """:func:`run_stage` away from the query's own tracer (a branch thread).

    The trace is *resumed* from the request's coordinates, not shared
    (open-span stacks are per thread; resumed IDs are the serial walk's);
    its spans travel home on the outcome with the measured
    admission-to-start wait.
    """
    tracer = Tracer.resume(request.trace) if request.trace is not None else None
    wait = 0.0
    if request.admitted_at is not None:
        wait = max(time.perf_counter() - request.admitted_at, 0.0)
    with use_tracer(tracer) if tracer is not None else nullcontext():
        outcome = run_stage(
            service, lambda: service.invoke(request), record, tracer, wait
        )
    if tracer is not None:
        outcome.spans = tracer.finish()
    return outcome


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
    query: IPAQuery, failures: Dict[str, str], transcript: str = "", **measured: Any
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
        degraded=True,
        failures=failures,
        **measured,
    )


class PlanExecutor:
    """Runs :class:`QueryPlan` DAGs over a registry of services."""

    def __init__(
        self,
        services: Dict[str, Service],
        plan: Optional[QueryPlan] = None,
        trace_seed: Optional[int] = None,
        metrics: Optional[RollupStore] = None,
    ):
        self.services = dict(services)
        self.plan = plan if plan is not None else full_plan()
        #: ``None`` disables tracing; any int seeds deterministic span IDs
        #: (chaos replays with the same seed export identical span forests).
        self.trace_seed = trace_seed
        #: Optional :class:`~repro.obs.timeseries.RollupStore` that
        #: ``run_all`` records *measured* e2e / per-stage / wait seconds
        #: into, on the stream-ordinal clock.
        self.metrics = metrics
        for stage in self.plan.stages:
            if stage.service not in self.services:
                raise ConfigurationError(
                    f"plan stage {stage.name!r} needs service {stage.service!r}, "
                    f"which is not registered (have: {sorted(self.services)})"
                )
            if stage.service not in _REQUEST_BUILDERS:
                raise ConfigurationError(
                    f"no request builder for service {stage.service!r}"
                )

    def warmup(self) -> None:
        """Warm every registered service (index builds, lazy caches)."""
        for service in self.services.values():
            service.warmup()

    # -- per-query execution -----------------------------------------------------

    def run(
        self,
        query: IPAQuery,
        parallel_branches: bool = False,
        ordinal: int = 0,
        on_error: str = RAISE,
        precomputed: Optional[Dict[str, Any]] = None,
        wall_start: Optional[float] = None,
        router_ticket: Optional[RouterTicket] = None,
    ) -> SiriusResponse:
        """Run one query through :attr:`plan` and assemble the response.

        A degradable (QA/IMM) failure always yields a degraded response; a
        fatal (ASR/classify) failure re-raises under ``on_error="raise"``
        (the default) or returns a failed response under ``"degrade"``.

        ``precomputed`` maps service names to :class:`~repro.serving.
        service.StageOutcome` objects a streaming session already
        produced: those stages are *absorbed* (spans adopted, failures
        classified) instead of executed, and the rest of
        the plan runs normally — how the gateway fires classify/QA/IMM off
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
        precomputed = dict(precomputed) if precomputed else {}
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
        if router_ticket is not None:
            self._record_router(state, router_ticket)
        ambient = (
            use_tracer(state.tracer) if state.tracer is not None else nullcontext()
        )
        try:
            with ambient:
                for level in self.plan.levels():
                    runnable = [stage for stage in level if stage.guard()(state)]
                    ready = [s for s in runnable if s.service in precomputed]
                    live = [s for s in runnable if s.service not in precomputed]
                    for stage in ready:
                        self._absorb(stage, state, precomputed[stage.service])
                    if parallel_branches and len(live) > 1:
                        self._run_level_threaded(live, state)
                    else:
                        for stage in live:
                            self._run_stage(stage, state)
        except SiriusError as exc:
            if on_error == RAISE or state.fatal_error is None:
                if state.tracer is not None:
                    state.tracer.end_span(state.root_span, exc)
                    exc.__sirius_spans__ = state.tracer.finish()
                raise
        return self._build_response(state)

    def _record_router(self, state: ExecutionState, ticket: RouterTicket) -> None:
        """Materialize the router's placement as a span and metrics.

        The span covers ``[enqueued_at, dispatch]`` — the real queue window
        — with the *whole* window recorded as wait, so the critical-path
        analyzer (which clamps wait to measured self time) attributes it to
        a ``ROUTER`` stage of its own.  All attributes are deterministic
        under the run's seed; only ``start``/``end``/``wait`` are measured.
        """
        wait = 0.0
        if ticket.enqueued_at is not None:
            wait = max(time.perf_counter() - ticket.enqueued_at, 0.0)
        if state.tracer is not None:
            span = begin_router_span(state.tracer, ticket)
            if ticket.enqueued_at is not None:
                span.start = ticket.enqueued_at
            state.tracer.end_span(span)
            span.wait = span.duration
        if self.metrics is not None:
            t = float(state.ordinal)
            if wait > 0:
                self.metrics.observe(ROUTER_WAIT_METRIC, t, wait)
            self.metrics.observe(
                DEPTH_METRIC, t, float(ticket.queue_depth), replica=ticket.replica
            )

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
        state.trace_ctx = state.tracer.context()

    def _request(self, stage: PlanStage, state: ExecutionState) -> ServiceRequest:
        return _REQUEST_BUILDERS[stage.service](state)

    def _absorb(
        self, stage: PlanStage, state: ExecutionState, outcome: StageOutcome
    ) -> None:
        """Fold one stage's outcome into the query's accounting.

        The single entry point for stage results, wherever they came from:
        adopt spans recorded off the query's tracer (a failed stage keeps
        the sections it got through, as it does when it runs under the
        query's own), observe a hand-off's measured wait, add virtual
        latency, classify a captured failure (fatal services re-raise, the
        others degrade), and otherwise credit ``service_seconds`` and
        publish the payload to later stages.
        """
        service = self.services[stage.service]
        if state.tracer is not None:
            state.tracer.adopt(outcome.spans)
        if self.metrics is not None and outcome.wait_seconds > 0:
            self.metrics.observe(
                WAIT_METRIC, float(state.ordinal), outcome.wait_seconds,
                stage=service.label,
            )
        state.virtual_seconds += outcome.virtual_seconds
        if outcome.error is not None:
            state.failures[service.label] = outcome.error.code
            if stage.service in FATAL_SERVICES:
                state.fatal_error = outcome.error
                raise outcome.error
            return
        if stage.record:
            state.service_seconds[service.label] = outcome.seconds
        state.results[stage.name] = outcome.payload
        if stage.service == ASR:
            state.transcript = outcome.payload.text
        elif stage.service == CLASSIFY:
            state.classification = outcome.payload

    def _run_stage(self, stage: PlanStage, state: ExecutionState) -> None:
        """Serial stage execution under the query's own tracer."""
        service = self.services[stage.service]
        request = self._request(stage, state)
        outcome = run_stage(
            service, lambda: service.invoke(request), stage.record, state.tracer
        )
        self._absorb(stage, state, outcome)

    def _run_level_threaded(
        self, stages: Sequence[PlanStage], state: ExecutionState
    ) -> None:
        """Overlap one level's independent stages on threads.

        Each branch is :func:`run_handed_off`; outcomes are absorbed in
        declaration order, so accounting and span forest are the serial
        walk's.  A branch failure degrades that branch alone — the
        sibling's result is kept either way.
        """
        with ThreadPoolExecutor(max_workers=len(stages)) as pool:
            futures = [
                pool.submit(
                    run_handed_off,
                    self.services[stage.service],
                    self._request(stage, state),
                    stage.record,
                )
                for stage in stages
            ]
            outcomes = [future.result() for future in futures]
        for stage, outcome in zip(stages, outcomes):
            self._absorb(stage, state, outcome)

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
        backend: str = "serial",
        workers: Optional[int] = None,
        parallel_branches: bool = False,
        on_error: str = RAISE,
    ) -> List[SiriusResponse]:
        """Process a stream of queries.

        Whole queries map over the chosen backend (``serial`` reproduces
        the classic sequential ``process_all``).  Each query is stamped
        with its stream ``ordinal``, the key the resilience layer uses to
        replay faults identically on every backend.  ``on_error="degrade"``
        turns fatal per-query failures into failed responses instead of
        aborting the stream.
        """
        _check_on_error(on_error)

        def run_one(item) -> SiriusResponse:
            index, query = item
            return self.run(
                query,
                parallel_branches=parallel_branches,
                ordinal=index,
                on_error=on_error,
            )

        responses = get_backend(backend).map(
            run_one, list(enumerate(queries)), workers=workers
        )
        if self.metrics is not None:
            record_responses(self.metrics, responses)
        return responses


def build_executor(
    decoder,
    classifier,
    qa_engine,
    image_database,
    plan: Optional[QueryPlan] = None,
    trace_seed: Optional[int] = None,
    metrics: Optional[RollupStore] = None,
) -> PlanExecutor:
    """Wrap pipeline components in services and assemble an executor."""
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
    return PlanExecutor(
        services, plan=plan, trace_seed=trace_seed, metrics=metrics
    )
