"""Discrete-event queue simulation — the empirical check on Figure 17.

The paper models servers as M/M/1 queues analytically.  This simulator
generates Poisson arrivals and serves them through c parallel servers
(c=1 for an accelerated server, c=4 for the baseline's query-parallel
cores), measuring response times directly, so the analytic model's
predictions (and its convergence claims) can be validated empirically —
including with *measured* Sirius latency distributions instead of the
exponential assumption.

Two measured modes exist: :func:`empirical_sampler` replays a recorded
latency sample, and :func:`simulate_serving` /
:func:`live_service_sampler` go further — every simulated arrival is
serviced by a *real* serving-layer entry point (``pipeline.process`` or a
:class:`repro.serving.Service`), so the queueing conclusions are checked
against the implementation itself rather than any recorded distribution.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, List, Sequence

from repro.datacenter.queueing import MM1Queue
from repro.errors import ConfigurationError, SiriusError


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate statistics from one simulation run."""

    n_completed: int
    mean_response_time: float
    p95_response_time: float
    mean_waiting_time: float
    utilization: float
    p99_response_time: float = 0.0

    @property
    def throughput_ok(self) -> bool:
        return self.n_completed > 0


@dataclass(frozen=True)
class ServingSimulationResult(SimulationResult):
    """Queue statistics plus per-arrival serving outcomes under faults.

    Produced by :func:`simulate_serving`: each simulated arrival's
    response is classed as *ok* (full quality), *degraded* (served, but a
    QA/IMM branch failed), or *failed* (a fatal service failed, or the
    call raised).  Outcome counts cover the whole arrival stream —
    availability is a correctness property, so no warmup fraction is
    discarded from it (queueing statistics still are).
    """

    n_ok: int = 0
    n_degraded: int = 0
    n_failed: int = 0

    @property
    def n_arrivals(self) -> int:
        return self.n_ok + self.n_degraded + self.n_failed

    @property
    def availability(self) -> float:
        """Fraction of arrivals that got *an* answer (ok or degraded)."""
        total = self.n_arrivals
        return (self.n_ok + self.n_degraded) / total if total else 0.0

    @property
    def goodput(self) -> float:
        """Fraction of arrivals served at full quality."""
        total = self.n_arrivals
        return self.n_ok / total if total else 0.0


def exponential_sampler(mean: float, seed: int = 0) -> Callable[[], float]:
    """Service-time sampler for the M (exponential) assumption."""
    if mean <= 0:
        raise ConfigurationError("mean service time must be positive")
    rng = random.Random(seed)
    return lambda: rng.expovariate(1.0 / mean)


def deterministic_sampler(value: float) -> Callable[[], float]:
    """Service-time sampler for an M/D/c run."""
    if value <= 0:
        raise ConfigurationError("service time must be positive")
    return lambda: value


def empirical_sampler(samples: Sequence[float], seed: int = 0) -> Callable[[], float]:
    """Sampler drawing from measured latencies (e.g. real Sirius queries)."""
    if not samples:
        raise ConfigurationError("need at least one sample")
    if min(samples) <= 0:
        raise ConfigurationError("latency samples must be positive")
    rng = random.Random(seed)
    pool = list(samples)
    return lambda: rng.choice(pool)


def live_service_sampler(
    process_fn: Callable[..., object],
    queries: Sequence,
    seed: int = 0,
) -> Callable[[], float]:
    """Service-time sampler that *executes* a real query per arrival.

    ``process_fn`` is any real serving entry point — ``pipeline.process``,
    ``PlanExecutor.run``, or a single :class:`repro.serving.Service` — and
    each draw runs one query (chosen uniformly from ``queries``) through
    it, returning the measured wall latency — or the response's
    ``wall_seconds`` when that is larger, so injected virtual latency
    counts like real latency.  This replaces the exponential-service
    *assumption* of the M/M/1 analysis with the actual latency process of
    the implementation.
    """
    if not queries:
        raise ConfigurationError("need at least one query")
    rng = random.Random(seed)
    pool = list(queries)
    clock = time.perf_counter

    def sample() -> float:
        start = clock()
        response = process_fn(rng.choice(pool))
        return max(getattr(response, "wall_seconds", 0.0), clock() - start, 1e-9)

    return sample


def simulate_serving(
    process_fn: Callable[..., object],
    queries: Sequence,
    arrival_rate: float,
    n_servers: int = 1,
    n_queries: int = 100,
    seed: int = 42,
    warmup_fraction: float = 0.1,
) -> ServingSimulationResult:
    """Queue simulation whose arrivals are serviced by *real* services.

    Every simulated arrival runs one real query through ``process_fn``
    (``pipeline.process`` or ``PlanExecutor.run``) and uses its measured
    latency as that arrival's service time, so the empirical queueing
    checks (Figure 17's convergence claims) run against measured rather
    than assumed distributions.  Keep ``n_queries`` modest: each one is a
    genuine end-to-end query execution.

    Each arrival's response is also classed ok / degraded / failed by
    :func:`repro.serving.identity.outcome_counts`; a
    :class:`~repro.errors.SiriusError` raised by ``process_fn`` counts as
    failed.  Pair ``process_fn`` with a resilient executor's
    ``run(query, on_error="degrade")`` so fatal failures surface as failed
    responses with their virtual latency, not as exceptions.
    """
    # Imported here: repro.serving's replay driver imports this module.
    from repro.serving.identity import outcome_counts

    served: List[object] = []
    raised: List[SiriusError] = []

    def serve(query):
        try:
            response = process_fn(query)
        except SiriusError as exc:
            raised.append(exc)
            return None
        served.append(response)
        return response

    base = simulate_queue(
        arrival_rate,
        live_service_sampler(serve, queries, seed=seed + 1),
        n_servers=n_servers,
        n_queries=n_queries,
        seed=seed,
        warmup_fraction=warmup_fraction,
    )
    n_ok, n_degraded, n_failed = outcome_counts(served)
    return ServingSimulationResult(
        **asdict(base),
        n_ok=n_ok,
        n_degraded=n_degraded,
        n_failed=n_failed + len(raised),
    )


def simulate_queue(
    arrival_rate: float,
    service_sampler: Callable[[], float],
    n_servers: int = 1,
    n_queries: int = 5000,
    seed: int = 42,
    warmup_fraction: float = 0.1,
) -> SimulationResult:
    """Simulate a FIFO G/G/c queue and report response-time statistics.

    Arrivals are Poisson at ``arrival_rate``; service times come from
    ``service_sampler``; ``n_servers`` serve in parallel from one queue.
    The first ``warmup_fraction`` of completions is discarded.
    """
    if arrival_rate <= 0:
        raise ConfigurationError("arrival rate must be positive")
    if n_servers < 1 or n_queries < 10:
        raise ConfigurationError("need n_servers >= 1 and n_queries >= 10")

    rng = random.Random(seed)
    # Pre-draw arrivals.
    arrivals: List[float] = []
    clock = 0.0
    for _ in range(n_queries):
        clock += rng.expovariate(arrival_rate)
        arrivals.append(clock)

    # server_free[i] = time server i becomes idle (min-heap).
    server_free = [0.0] * n_servers
    heapq.heapify(server_free)
    response_times: List[float] = []
    waiting_times: List[float] = []
    busy_time = 0.0
    for arrival in arrivals:
        free_at = heapq.heappop(server_free)
        start = max(arrival, free_at)
        service = service_sampler()
        finish = start + service
        heapq.heappush(server_free, finish)
        response_times.append(finish - arrival)
        waiting_times.append(start - arrival)
        busy_time += service

    cutoff = int(len(response_times) * warmup_fraction)
    kept = response_times[cutoff:]
    kept_wait = waiting_times[cutoff:]
    horizon = max(server_free) if server_free else 1.0
    kept_sorted = sorted(kept)
    p95 = kept_sorted[min(int(0.95 * len(kept_sorted)), len(kept_sorted) - 1)]
    p99 = kept_sorted[min(int(0.99 * len(kept_sorted)), len(kept_sorted) - 1)]
    return SimulationResult(
        n_completed=len(kept),
        mean_response_time=sum(kept) / len(kept),
        p95_response_time=p95,
        mean_waiting_time=sum(kept_wait) / len(kept_wait),
        utilization=min(busy_time / (n_servers * horizon), 1.0),
        p99_response_time=p99,
    )


def histogram_sampler(histogram, seed: int = 0) -> Callable[[], float]:
    """Service-time sampler over a measured latency histogram.

    ``histogram`` is anything exposing raw ``samples`` — in practice a
    :class:`repro.obs.timeseries.RollupPanel` read off a store's snapshot
    — so measured serving distributions plug straight into the queue model.
    Repeated observations carried as reservoir ``weights`` keep their
    multiplicity (draws are weight-proportional).  Non-positive samples
    (degenerately fast stubbed services) are clamped to a nanosecond: a
    zero service time would break utilization math.
    """
    samples = [max(value, 1e-9) for value in histogram.samples]
    weights = list(getattr(histogram, "weights", ()) or ())
    if weights and any(weight != 1 for weight in weights):
        if not samples:
            raise ConfigurationError("need at least one sample")
        rng = random.Random(seed)
        return lambda: rng.choices(samples, weights=weights, k=1)[0]
    return empirical_sampler(samples, seed=seed)


def simulate_from_histogram(
    histogram,
    load: float,
    n_queries: int = 5000,
    seed: int = 42,
    n_servers: int = 1,
    warmup_fraction: float = 0.1,
) -> SimulationResult:
    """Queue simulation fed by a *measured* latency histogram (Fig 8 → 17).

    The arrival rate is set so a single server would sit at utilization
    ``load`` given the histogram's measured mean — the same
    parameterization as the analytic M/M/1 curve, but with service times
    drawn from the real distribution instead of the exponential
    assumption.  Compare against
    :func:`repro.datacenter.queueing.mm1_percentile`.
    """
    if not 0 < load < 1:
        raise ConfigurationError("load must be in (0, 1)")
    samples = list(histogram.samples)
    if not samples:
        raise ConfigurationError("histogram has no samples to simulate from")
    weights = list(getattr(histogram, "weights", ()) or ()) or [1] * len(samples)
    population = sum(weights)
    mean = max(
        math.fsum(value * weight for value, weight in zip(samples, weights))
        / population,
        1e-9,
    )
    return simulate_queue(
        arrival_rate=load / (mean * n_servers),
        service_sampler=histogram_sampler(histogram, seed=seed + 1),
        n_servers=n_servers,
        n_queries=n_queries,
        seed=seed,
        warmup_fraction=warmup_fraction,
    )


def validate_mm1(
    service_time: float,
    load: float,
    n_queries: int = 20000,
    seed: int = 7,
) -> tuple:
    """(simulated, analytic) mean response time for one M/M/1 point."""
    if not 0 < load < 1:
        raise ConfigurationError("load must be in (0, 1)")
    arrival_rate = load / service_time
    result = simulate_queue(
        arrival_rate,
        exponential_sampler(service_time, seed=seed + 1),
        n_servers=1,
        n_queries=n_queries,
        seed=seed,
    )
    analytic = MM1Queue(service_time).response_time(arrival_rate)
    return result.mean_response_time, analytic
