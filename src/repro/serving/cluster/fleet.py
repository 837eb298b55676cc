"""The live cluster: replicated executors behind a deterministic router.

A :class:`Cluster` is a fleet of fully independent
:class:`~repro.serving.executor.PlanExecutor` replicas (each with its own
services — typically sharded QA/IMM from
:mod:`repro.serving.cluster.sharding`) fronted by one router.  Queries fan
out *across* replicas (cross-query balancing) while each query fans out
*within* its replica's sharded services (single-query scatter/gather) —
the two axes of the paper's Section 6 architecture, composed.

**Determinism before realism.**  The router's load signal is not measured
queue length (which would depend on thread timing and break replay): it is
a **windowed assignment count** — replica *i*'s depth is how many of the
last ``window`` admitted queries were placed on it.  That signal is a pure
fold over ordinals, so the full placement table for a stream is computed
up front by :meth:`Cluster.plan_routes` and every decision is a pure
function of ``(seed, ordinal)``.  Consequences the conformance suite
checks: identical placements, outcome streams, and timing-stripped span
forests across serial/thread/process backends, chaos included.  The model
replay driver (:mod:`repro.serving.cluster.replay`) is the complementary
mode with *true* queue depths in virtual time.

Every placement is materialized as a
:class:`~repro.serving.executor.RouterTicket`, so executors emit a
``router`` span per query (queue wait attributed to stage ``ROUTER``, not
to any service) and the critical-path analyzer prices the router like any
other stage.  Rejected queries become *failed* responses with the stable
``ADMISSION`` code and a one-span trace of their own — conservation holds:
exactly one response per query, admitted or not.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Union

from repro.core.query import IPAQuery, SiriusResponse
from repro.errors import AdmissionError, ConfigurationError
from repro.obs.timeseries import (
    ARRIVALS_METRIC,
    REJECTED_METRIC,
    ROUTER_WAIT_METRIC,
    RollupStore,
    record_responses,
    rollups_from_spans,
)
from repro.obs.trace import ROUTER, Tracer, collect_spans
from repro.serving.backends import get_backend
from repro.serving.cluster.router import (
    AdmissionControl,
    POWER_OF_TWO,
    RoutingPolicy,
    get_policy,
    place,
)
from repro.serving.executor import (
    DEGRADE,
    PlanExecutor,
    RouterTicket,
    begin_router_span,
    failed_response,
)


@dataclass(frozen=True)
class RouteDecision:
    """One query's routing outcome, pure in ``(seed, ordinal)``."""

    ordinal: int
    admitted: bool
    replica: int       #: chosen replica index (also set for rejected queries)
    queue_depth: int   #: the chosen replica's windowed depth the router saw
    policy: str

    def key(self) -> tuple:
        """The replay-comparable projection (used by conformance tests)."""
        return (self.ordinal, self.admitted, self.replica, self.queue_depth)


class Cluster:
    """A routed fleet of plan-executor replicas.

    ``executors`` are the replicas (index = replica id).  ``policy`` may be
    a registry name or a :class:`~repro.serving.cluster.router.
    RoutingPolicy` instance; ``admission`` is optional seeded load
    shedding.  ``window`` sizes the assignment-count load signal (default:
    four outstanding queries per replica).  ``metrics`` and ``rollups``
    are optional :class:`~repro.obs.timeseries.RollupStore` instances,
    both recorded parent-side after each stream on the ordinal clock, so
    the numbers are complete even when replicas ran in forked workers.
    ``metrics`` holds what was *measured*: e2e/stage seconds and outcomes
    via :func:`~repro.obs.timeseries.record_responses` plus the router
    spans' waits.  ``rollups`` holds only what the seed determines:
    arrivals from the placement table plus the span projection
    (:func:`~repro.obs.timeseries.rollups_from_spans` — assignments,
    depths, rejections, fan-out, errors, virtual stage costs), so a live
    chaos run yields the same windowed telemetry on any backend.
    """

    def __init__(
        self,
        executors: Sequence[PlanExecutor],
        policy: Union[str, RoutingPolicy] = POWER_OF_TWO,
        seed: int = 0,
        admission: Optional[AdmissionControl] = None,
        metrics: Optional[RollupStore] = None,
        window: Optional[int] = None,
        rollups: Optional[RollupStore] = None,
    ):
        if not executors:
            raise ConfigurationError("a cluster needs >= 1 replica executor")
        self.executors: List[PlanExecutor] = list(executors)
        self.policy = policy if isinstance(policy, RoutingPolicy) else get_policy(policy)
        self.seed = seed
        self.admission = admission
        self.metrics = metrics
        self.rollups = rollups
        self.window = window if window is not None else 4 * len(self.executors)
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")

    @property
    def n_replicas(self) -> int:
        return len(self.executors)

    def warmup(self) -> None:
        for executor in self.executors:
            executor.warmup()

    # -- routing -----------------------------------------------------------------

    def plan_routes(self, n_queries: int) -> List[RouteDecision]:
        """The full placement table for a stream, computed up front.

        A pure fold: depths start at zero, each admitted query increments
        its replica's count, and assignments older than ``window`` age
        out.  No wall clock, no shared mutable state during execution —
        the table is identical on every backend and every rerun.
        """
        depths = [0] * self.n_replicas
        recent: deque = deque()
        decisions: List[RouteDecision] = []
        for ordinal in range(n_queries):
            replica, depth, admitted = place(
                self.policy, self.admission, ordinal, depths, self.seed
            )
            decisions.append(
                RouteDecision(
                    ordinal=ordinal,
                    admitted=admitted,
                    replica=replica,
                    queue_depth=depth,
                    policy=self.policy.name,
                )
            )
            if admitted:
                depths[replica] += 1
                recent.append(replica)
                if len(recent) > self.window:
                    depths[recent.popleft()] -= 1
        return decisions

    # -- execution ---------------------------------------------------------------

    def run_all(
        self,
        queries: Sequence[IPAQuery],
        backend: str = "serial",
        workers: Optional[int] = None,
        parallel_branches: bool = False,
    ) -> List[SiriusResponse]:
        """Serve a query stream through the routed fleet.

        Returns exactly one response per query, in stream order (the
        conservation property).  Fatal per-query failures degrade (the
        stream never aborts); rejected queries come back failed with the
        ``ADMISSION`` code.  The **replica** is the unit of parallelism:
        ``backend`` maps over the per-replica groups of the placement
        table and each group runs serially in ordinal order, so a
        replica's call-history state (circuit breakers) sees the serial
        call sequence on every backend and worker count — the backend
        only affects wall time, never outcomes, and cross-query
        parallelism is bounded by ``n_replicas``.
        """
        queries = list(queries)
        decisions = self.plan_routes(len(queries))
        enqueued_at = time.perf_counter()

        def run_one(ordinal: int) -> SiriusResponse:
            decision = decisions[ordinal]
            ticket = RouterTicket(
                policy=decision.policy,
                replica=decision.replica,
                n_replicas=self.n_replicas,
                queue_depth=decision.queue_depth,
                enqueued_at=enqueued_at,
            )
            if not decision.admitted:
                return self._rejected_response(queries[ordinal], ticket, ordinal)
            return self.executors[decision.replica].run(
                queries[ordinal],
                ordinal=ordinal,
                on_error=DEGRADE,
                parallel_branches=parallel_branches,
                router_ticket=ticket,
            )

        groups = [
            [d.ordinal for d in decisions if d.replica == replica]
            for replica in range(self.n_replicas)
        ]
        served = get_backend(backend).map(
            lambda ordinals: [run_one(ordinal) for ordinal in ordinals],
            groups,
            workers=workers,
        )
        by_ordinal = dict(zip(chain.from_iterable(groups), chain.from_iterable(served)))
        responses = [by_ordinal[ordinal] for ordinal in range(len(queries))]
        if self.metrics is not None:
            self._record_metrics(responses)
        if self.rollups is not None:
            self._record_rollups(decisions, responses)
        return responses

    def _rejected_response(
        self, query: IPAQuery, ticket: RouterTicket, ordinal: int
    ) -> SiriusResponse:
        """A failed response (plus a one-span trace) for a shed query."""
        error = AdmissionError(
            f"query #{ordinal} rejected at the router "
            f"(replica {ticket.replica} depth {ticket.queue_depth})",
            service="router",
        )
        spans: tuple = ()
        trace_seed = self.executors[ticket.replica].trace_seed
        if trace_seed is not None:
            tracer = Tracer(seed=trace_seed)
            root = tracer.begin_trace(ordinal)
            tracer.end_span(begin_router_span(tracer, ticket), error)
            root.attributes["degraded"] = True
            root.attributes["failed"] = True
            tracer.end_span(root, error)
            spans = tracer.finish()
        return failed_response(query, {"ROUTER": error.code}, spans=spans)

    def _record_metrics(self, responses: Sequence[SiriusResponse]) -> None:
        """Parent-side measured seconds: complete whichever backend ran."""
        record_responses(self.metrics, responses)
        for span in chain.from_iterable(r.spans for r in responses):
            if span.kind == ROUTER and span.wait > 0:
                self.metrics.observe(
                    ROUTER_WAIT_METRIC, float(span.ordinal), span.wait
                )

    def _record_rollups(
        self,
        decisions: Sequence[RouteDecision],
        responses: Sequence[SiriusResponse],
    ) -> None:
        """Windowed telemetry on the ordinal clock, deterministic by design.

        Arrivals come from the placement table; everything else
        (per-replica assignments and depths, rejections, stage costs,
        errors, fan-out, breaker trips) is projected from the responses'
        span forests, which read only seed-deterministic span fields — so
        the same chaos stream rolls up byte-identically on every backend.
        An untraced rejection has no router span to project, so it is
        counted from the placement table instead (never both).
        """
        store = self.rollups
        for decision, response in zip(decisions, responses):
            t = float(decision.ordinal)
            store.inc(ARRIVALS_METRIC, t)
            if not decision.admitted and not response.spans:
                store.inc(REJECTED_METRIC, t)
        spans = collect_spans(responses)
        if spans:
            store.merge(
                rollups_from_spans(
                    spans,
                    window=store.window_seconds,
                    max_samples=store.max_samples,
                )
            )


def build_cluster(
    pipeline,
    n_replicas: int = 2,
    n_shards: int = 2,
    policy: Union[str, RoutingPolicy] = POWER_OF_TWO,
    seed: int = 0,
    admission: Optional[AdmissionControl] = None,
    metrics: Optional[RollupStore] = None,
    trace_seed: Optional[int] = None,
    imm_top_k: int = 3,
    fault_plan=None,
    rollups: Optional[RollupStore] = None,
) -> Cluster:
    """Assemble a sharded fleet from one built pipeline's components.

    Every replica gets its own :class:`PlanExecutor` over **sharded** QA
    and IMM services (the image database and the websearch index are
    partitioned ``n_shards`` ways; shard state is shared read-only across
    replicas, as a real fleet shares storage).  ASR and classification
    replicate whole — they carry no shardable corpus.  ``fault_plan``
    (e.g. :func:`~repro.serving.faults.default_chaos_plan`) wraps every
    replica's services in deterministic fault injectors keyed by ordinal,
    so chaos replays identically across replicas and backends; rules keyed
    by per-shard names (``qa.shard0``, ``imm.shard1``, ...) reach the
    scatter legs inside the sharded services, which is how the conformance
    suite rehearses partial shard failure.
    """
    from repro.serving.cluster.sharding import (
        ShardedImmService,
        ShardedQaService,
        shard_image_database,
        shard_qa_engines,
    )
    from repro.serving.faults import FaultInjector
    from repro.serving.service import (
        ASR,
        CLASSIFY,
        IMM,
        QA,
        AsrService,
        ClassifierService,
    )

    if n_replicas < 1:
        raise ConfigurationError("need n_replicas >= 1")
    qa_shards = shard_qa_engines(pipeline.qa_engine, n_shards)
    imm_shards = shard_image_database(pipeline.image_database, n_shards)
    executors = []
    for _ in range(n_replicas):
        services = {
            ASR: AsrService(pipeline.decoder),
            CLASSIFY: ClassifierService(pipeline.classifier),
            QA: ShardedQaService(qa_shards, fault_plan=fault_plan),
            IMM: ShardedImmService(imm_shards, top_k=imm_top_k, fault_plan=fault_plan),
        }
        if fault_plan is not None:
            services = {
                name: FaultInjector(service, fault_plan)
                for name, service in services.items()
            }
        executors.append(PlanExecutor(services, trace_seed=trace_seed))
    return Cluster(
        executors,
        policy=policy,
        seed=seed,
        admission=admission,
        metrics=metrics,
        rollups=rollups,
    )
