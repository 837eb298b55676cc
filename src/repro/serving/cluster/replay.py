"""Open-loop traffic replay: the cluster in virtual time.

The live fleet (:mod:`repro.serving.cluster.fleet`) runs real queries and
therefore tops out at what one machine can execute.  This driver answers
the warehouse-scale question instead: it replays a seeded arrival process
(:mod:`repro.datacenter.arrivals`) against a *model* fleet in virtual
time — per-replica FIFO queues, service times drawn from a seeded sampler
(measured histogram or exponential), the same pluggable routing policies
and admission control as the live cluster, and an SLO autoscaler evaluated
on the measured p99 once per tick.  Fifty thousand virtual queries replay
in well under a second, and the per-replica load is scale-invariant, so
tail estimates extrapolate to the paper's millions-of-queries regime
(:func:`extrapolate_fleet`).

**Everything is deterministic.**  Arrivals, service draws, routing,
admission, and scaling decisions are all pure functions of the run's
seeds, so the same ``(seed, arrival process)`` replays byte-identically —
:meth:`ReplayResult.digest` hashes the full per-query outcome stream and
the conformance suite asserts digest equality across repeated runs.  The
model is also *checkable*: at ``n_replicas=1`` with Poisson arrivals and
an exponential sampler it **is** an M/M/1 queue, and
:meth:`ReplayResult.mm1_p99` gives the closed-form tail to compare
against (``repro cluster-bench`` prints both; the conformance suite
asserts the documented error bound).  It is the repo's only queueing
event loop: the Fig 17 validation, ``trace-report --mm1`` and
:func:`repro.datacenter.simulation.simulate_serving` all run through it.

The loop records only outcomes, scaling decisions and the replica
timeline; the windowed telemetry is a projection of those
(:meth:`ReplayResult.rollups`), built only when a report reads it.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from repro.datacenter.arrivals import ArrivalProcess, make_process
from repro.datacenter.queueing import mm1_percentile
from repro.datacenter.simulation import exponential_sampler
from repro.errors import ConfigurationError
from repro.obs.metrics import percentile
from repro.obs.pricing import energy_microjoules
from repro.obs.timeseries import (
    ARRIVALS_METRIC,
    ASSIGNMENTS_METRIC,
    DEPTH_METRIC,
    E2E_METRIC,
    ENERGY_METRIC,
    QUERIES_METRIC,
    REJECTED_METRIC,
    REPLICAS_METRIC,
    RollupSnapshot,
    RollupStore,
    SCALE_ACTIONS_METRIC,
    SERVICE_METRIC,
    TTFP_METRIC,
    WAIT_METRIC,
)
from repro.platforms.spec import CMP
from repro.serving.cluster.autoscaler import AutoscalerPolicy, ScaleDecision
from repro.serving.cluster.router import (
    AdmissionControl,
    RoutingPolicy,
    get_policy,
    place,
)


def ttfp_fraction(seed: int, ordinal: int) -> float:
    """The modeled first-partial point of a query's service time, in [0.1, 0.4).

    The live gateway measures time-to-first-partial as a real prefix of
    service work; the virtual replay models it as a seeded per-ordinal
    hash draw — a pure function of ``(seed, ordinal)``, so the TTFP
    series replays byte-identically and the TTFP SLO has end-to-end data
    without executing audio.
    """
    payload = f"{seed}:{ordinal}:ttfp".encode()
    unit = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") / float(1 << 64)
    return 0.1 + 0.3 * unit


@dataclass(frozen=True)
class QueryOutcome:
    """One virtual query's fate — every field deterministic under the seeds."""

    ordinal: int
    arrival: float     #: absolute virtual arrival time
    admitted: bool
    replica: int
    queue_depth: int   #: true queue depth the router saw at arrival
    wait: float = 0.0       #: virtual seconds queued before service
    service: float = 0.0    #: virtual service seconds
    response: float = 0.0   #: wait + service
    #: Modeled time-to-first-partial (wait + a seeded fraction of service).
    #: Derived purely from the fields above plus the run seed, so it is
    #: deliberately not part of :meth:`key` — the digest identity predates it.
    ttfp: float = 0.0

    def key(self) -> tuple:
        return (
            self.ordinal, round(self.arrival, 9), self.admitted, self.replica,
            self.queue_depth, round(self.wait, 9), round(self.service, 9),
        )


@dataclass
class ReplayResult:
    """Aggregate statistics plus the full deterministic outcome stream."""

    policy: str
    n_queries: int
    n_admitted: int
    n_rejected: int
    horizon: float                 #: virtual end time (last completion)
    mean_service: float
    mean_rate: float               #: admitted arrivals / horizon
    utilization: float             #: busy replica-seconds / available
    #: Means over the warmup-trimmed admitted queries — what Fig 17's
    #: validation compares against the analytic queue.
    mean_response: float
    mean_wait: float
    p50_response: float
    p95_response: float
    p99_response: float
    p50_wait: float
    p99_wait: float
    tick_seconds: float            #: autoscaler tick = rollup window width
    outcomes: List[QueryOutcome] = field(default_factory=list)
    decisions: List[ScaleDecision] = field(default_factory=list)
    #: (tick index, active replica count) after each autoscaler evaluation.
    replica_timeline: List[Tuple[int, int]] = field(default_factory=list)

    def rollups(self) -> RollupSnapshot:
        """Windowed per-tick telemetry, projected from the outcome stream.

        Per query at its arrival time: arrivals, admission rejects,
        per-replica assignments and queue depth, wait/service/e2e and the
        modeled TTFP (:func:`ttfp_fraction`), and the energy panel (queue
        wait + service at full-server CMP draw, through the single
        rounding point in :mod:`repro.obs.pricing`, so panel values match
        the cost ledger microjoule-for-microjoule).  Per autoscaler tick at
        the tick's window start: the action and the resulting replica
        count.  Everything is in virtual time, window width
        ``tick_seconds`` — the fleet report's raw material.
        """
        store = RollupStore(window_seconds=self.tick_seconds)
        for outcome in self.outcomes:
            t = outcome.arrival
            store.inc(ARRIVALS_METRIC, t)
            if not outcome.admitted:
                store.inc(REJECTED_METRIC, t)
                store.inc(QUERIES_METRIC, t, status="failed")
                continue
            replica = outcome.replica
            store.inc(QUERIES_METRIC, t, status="ok")
            store.inc(ASSIGNMENTS_METRIC, t, replica=replica)
            store.observe(DEPTH_METRIC, t, float(outcome.queue_depth), replica=replica)
            store.observe(WAIT_METRIC, t, outcome.wait)
            store.observe(SERVICE_METRIC, t, outcome.service)
            store.observe(E2E_METRIC, t, outcome.response)
            store.observe(TTFP_METRIC, t, outcome.ttfp)
            store.observe(
                ENERGY_METRIC, t,
                float(energy_microjoules(CMP, outcome.wait + outcome.service)),
            )
        # The loop advances its tick clock by repeated addition, so the
        # window starts are rebuilt the same way (not ``tick * width``).
        tick_end = self.tick_seconds
        for decision in self.decisions:
            tick_start = tick_end - self.tick_seconds
            store.inc(SCALE_ACTIONS_METRIC, tick_start, action=decision.action)
            store.observe(REPLICAS_METRIC, tick_start, float(decision.n_replicas))
            tick_end += self.tick_seconds
        return store.snapshot()

    def digest(self) -> str:
        """SHA-256 over the ordered outcome stream — the replay identity.

        Two runs with the same seeds must produce equal digests whatever
        machine, process, or hash seed ran them; the conformance suite
        holds the cluster layer to exactly this.
        """
        hasher = hashlib.sha256()
        for outcome in self.outcomes:
            hasher.update(repr(outcome.key()).encode())
        for decision in self.decisions:
            hasher.update(
                f"{decision.tick}:{decision.action}:{decision.n_replicas}".encode()
            )
        return hasher.hexdigest()

    def mm1_p99(self) -> float:
        """Closed-form M/M/1 p99 at this run's measured service mean and load.

        Exact only for the M/M/1 configuration (one replica, Poisson
        arrivals, exponential service); for everything else it is the
        analytic baseline the measured tail is compared against.
        """
        if not 0 < self.utilization < 1:
            raise ConfigurationError(
                "mm1_p99 needs utilization in (0, 1); the replay measured "
                f"{self.utilization:.3f}"
            )
        return mm1_percentile(self.mean_service, self.utilization, 99.0)

    def mm1_error(self) -> float:
        """Relative error of the measured p99 against the M/M/1 prediction."""
        predicted = self.mm1_p99()
        return abs(self.p99_response - predicted) / predicted if predicted else 0.0


def replay_cluster(
    process: ArrivalProcess,
    service_sampler: Callable[[], float],
    n_queries: int,
    policy: Union[str, RoutingPolicy] = "round-robin",
    n_replicas: int = 1,
    seed: int = 0,
    admission: Optional[AdmissionControl] = None,
    autoscaler: Optional[AutoscalerPolicy] = None,
    tick_seconds: float = 5.0,
    warmup_fraction: float = 0.1,
) -> ReplayResult:
    """Replay ``n_queries`` of a seeded arrival process through a model fleet.

    Each replica is a single-server FIFO queue in virtual time.  Per
    arrival, in order: the router sees every active replica's *true*
    outstanding-work depth, the policy picks a replica, admission accepts
    or sheds, and an admitted query waits for the replica's queue to drain
    before its sampled service time runs.  When an ``autoscaler`` is
    supplied, it is evaluated every ``tick_seconds`` of virtual time on
    the p99 of responses completed during that tick; scale-ups add idle
    replicas, scale-downs stop *assigning* to the highest-indexed replicas
    (in-flight work drains — connection draining, not job killing).

    Queueing means and percentiles discard the first ``warmup_fraction``
    of admitted queries (transient ramp from the empty state);
    conservation counts never discard anything.  ``tick_seconds`` is also
    the window width of :meth:`ReplayResult.rollups`.
    """
    if n_queries < 1:
        raise ConfigurationError("need n_queries >= 1")
    if n_replicas < 1:
        raise ConfigurationError("need n_replicas >= 1")
    if tick_seconds <= 0:
        raise ConfigurationError("tick_seconds must be positive")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError("warmup_fraction must be in [0, 1)")
    resolved = policy if isinstance(policy, RoutingPolicy) else get_policy(policy)

    max_replicas = (
        autoscaler.max_replicas if autoscaler is not None else n_replicas
    )
    active = n_replicas
    # Per-replica FIFO state: completion times of outstanding work, and the
    # time the replica next becomes free.
    pending: List[deque] = [deque() for _ in range(max_replicas)]
    free_at = [0.0] * max_replicas

    arrivals = process.times(n_queries, seed=seed)
    outcomes: List[QueryOutcome] = []
    decisions: List[ScaleDecision] = []
    replica_timeline: List[Tuple[int, int]] = []
    # Min-heap of (completion time, response), kept only for the autoscaler.
    completed: List[Tuple[float, float]] = []
    busy_time = 0.0
    replica_seconds = 0.0
    last_change = 0.0
    next_tick = tick_seconds
    tick_index = 0

    for ordinal, arrival in enumerate(arrivals):
        # Evaluate every autoscaler tick that elapsed before this arrival, on
        # the p99 of responses *completed* during the tick window.  Window
        # starts never decrease, so a completion at or before this one's
        # start can never count again; what stays on the heap is this
        # window plus work still in flight.
        while autoscaler is not None and next_tick <= arrival:
            window_start = next_tick - tick_seconds
            while completed and completed[0][0] <= window_start:
                heapq.heappop(completed)
            window = [
                response
                for completion, response in completed
                if completion <= next_tick
            ]
            p99 = percentile(window, 99.0) if window else 0.0
            decision = autoscaler.decide(tick_index, p99, active, seed=seed)
            decisions.append(decision)
            if decision.n_replicas != active:
                replica_seconds += active * (next_tick - last_change)
                last_change = next_tick
                active = decision.n_replicas
            replica_timeline.append((tick_index, active))
            tick_index += 1
            next_tick += tick_seconds
        depths = []
        for index in range(active):
            queue = pending[index]
            while queue and queue[0] <= arrival:
                queue.popleft()
            depths.append(len(queue))
        replica, depth, admitted = place(resolved, admission, ordinal, depths, seed)
        if not admitted:
            outcomes.append(
                QueryOutcome(
                    ordinal=ordinal, arrival=arrival, admitted=False,
                    replica=replica, queue_depth=depth,
                )
            )
            continue
        start = max(arrival, free_at[replica])
        service = max(service_sampler(), 1e-9)
        completion = start + service
        free_at[replica] = completion
        pending[replica].append(completion)
        busy_time += service
        wait = start - arrival
        response = completion - arrival
        if autoscaler is not None:
            heapq.heappush(completed, (completion, response))
        outcomes.append(
            QueryOutcome(
                ordinal=ordinal, arrival=arrival, admitted=True,
                replica=replica, queue_depth=depth,
                wait=wait, service=service, response=response,
                ttfp=wait + ttfp_fraction(seed, ordinal) * service,
            )
        )

    # Per-replica completions are monotone, so free_at holds each one's last.
    horizon = max(max(arrivals), max(free_at), 1e-9)
    replica_seconds += active * (horizon - last_change)
    if not replica_timeline:
        # No autoscaler ticks fired: the fleet held its initial size.
        replica_timeline.append((0, active))
    admitted_outcomes = [outcome for outcome in outcomes if outcome.admitted]
    cutoff = int(len(admitted_outcomes) * warmup_fraction)
    kept = admitted_outcomes[cutoff:]
    responses = [outcome.response for outcome in kept]
    waits = [outcome.wait for outcome in kept]
    services = [outcome.service for outcome in admitted_outcomes]
    return ReplayResult(
        policy=resolved.name,
        n_queries=n_queries,
        n_admitted=len(admitted_outcomes),
        n_rejected=n_queries - len(admitted_outcomes),
        horizon=horizon,
        mean_service=(
            math.fsum(services) / len(services) if services else 0.0
        ),
        mean_rate=len(admitted_outcomes) / horizon if horizon > 0 else 0.0,
        utilization=(
            min(busy_time / replica_seconds, 1.0) if replica_seconds > 0 else 0.0
        ),
        mean_response=math.fsum(responses) / len(kept) if kept else 0.0,
        mean_wait=math.fsum(waits) / len(kept) if kept else 0.0,
        p50_response=percentile(responses, 50.0),
        p95_response=percentile(responses, 95.0),
        p99_response=percentile(responses, 99.0),
        p50_wait=percentile(waits, 50.0),
        p99_wait=percentile(waits, 99.0),
        tick_seconds=float(tick_seconds),
        outcomes=outcomes,
        decisions=decisions,
        replica_timeline=replica_timeline,
    )


def seeded_replay(
    arrivals: str,
    rate: float,
    mean_service: float,
    n_queries: int,
    seed: int = 0,
    **fleet,
) -> ReplayResult:
    """:func:`replay_cluster` over a named arrival process and exponential service.

    Owns the seeding convention every pinned replay shares: arrivals,
    routing, admission and scaling draw from ``seed`` and service times
    from ``seed + 1``, so the two streams are independent yet one number
    replays the run.  ``fleet`` passes through to :func:`replay_cluster`
    (``policy``, ``n_replicas``, ``admission``, ``autoscaler``,
    ``tick_seconds``).
    """
    return replay_cluster(
        make_process(arrivals, rate),
        exponential_sampler(mean_service, seed=seed + 1),
        n_queries,
        seed=seed,
        **fleet,
    )


@dataclass(frozen=True)
class FleetEstimate:
    """A model-extrapolated fleet size for a target query volume."""

    target_queries: int      #: total queries over the planning window
    window_seconds: float    #: planning window length
    target_rate: float       #: implied queries/second
    per_replica_rate: float  #: sustainable admitted rate per replica
    n_replicas: int          #: replicas needed at the measured load point
    projected_p99: float     #: per-replica load is preserved, so p99 carries


def extrapolate_fleet(
    result: ReplayResult,
    target_queries: int = 1_000_000,
    window_seconds: float = 3600.0,
) -> FleetEstimate:
    """Size a fleet for ``target_queries`` over ``window_seconds``.

    Scale-invariance does the work: each replica in the measured replay
    sustained ``mean_rate / active_replicas`` admitted queries per second
    at the measured utilization and tail.  Holding the *per-replica* load
    fixed, serving the target volume needs proportionally more replicas —
    and preserves the measured p99, because a FIFO replica's response
    distribution depends only on its own arrival/service processes.  This
    is the model-extrapolation step: a 50 k-query replay prices a
    million-query hour without simulating it.
    """
    if target_queries < 1 or window_seconds <= 0:
        raise ConfigurationError("need target_queries >= 1 and window > 0")
    if result.n_admitted == 0 or result.horizon <= 0:
        raise ConfigurationError("cannot extrapolate from an empty replay")
    counts = [count for _, count in result.replica_timeline] or [1]
    mean_active = math.fsum(counts) / len(counts)
    per_replica = result.mean_rate / max(mean_active, 1.0)
    target_rate = target_queries / window_seconds
    return FleetEstimate(
        target_queries=target_queries,
        window_seconds=window_seconds,
        target_rate=target_rate,
        per_replica_rate=per_replica,
        n_replicas=max(int(math.ceil(target_rate / per_replica)), 1),
        projected_p99=result.p99_response,
    )
