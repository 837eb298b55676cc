"""Service-time samplers: the pluggable service side of the queue model.

The paper models servers as M/M/1 queues analytically.  The one loop that
checks it empirically is the virtual-time replay
(:func:`repro.serving.cluster.replay.replay_cluster`): Poisson arrivals
from :class:`repro.datacenter.arrivals.PoissonProcess`, per-replica FIFO
queues (one replica per core — the paper's baseline is four per-core
M/M/1 queues), and service times from one of the samplers here —
exponential (the M assumption), deterministic (M/D/1), a recorded
latency sample (:func:`empirical_sampler`), a measured histogram
(:func:`histogram_sampler`), or a *real* serving entry point executed
per arrival (:func:`live_service_sampler`, :func:`simulate_serving`), so
the queueing conclusions are checked against the implementation itself
rather than any recorded distribution.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Sequence

from repro.datacenter.arrivals import PoissonProcess
from repro.errors import ConfigurationError, SiriusError

if TYPE_CHECKING:
    from repro.serving.cluster.replay import ReplayResult


@dataclass(frozen=True)
class ServingSimulationResult:
    """A replay whose arrivals real services served, plus their outcomes.

    Produced by :func:`simulate_serving`: ``replay`` carries the queue
    statistics, and each arrival's response is classed as *ok* (full
    quality), *degraded* (served, but a QA/IMM branch failed), or
    *failed* (a fatal service failed, or the call raised).  Outcome counts
    cover the whole arrival stream — availability is a correctness
    property, so no warmup fraction is discarded from it (queueing
    statistics still are).
    """

    replay: ReplayResult
    n_ok: int
    n_degraded: int
    n_failed: int

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
    """Service-time sampler for an M/D/1 run."""
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
    process_fn: Callable[..., object], queries: Sequence, arrival_rate: float,
    n_queries: int = 100, seed: int = 42, warmup_fraction: float = 0.1,
) -> ServingSimulationResult:
    """One-replica Poisson replay whose service times are *real* queries.

    Each arrival runs one query through ``process_fn`` (keep ``n_queries``
    modest) and is classed by :func:`repro.serving.identity.outcome_counts`;
    a :class:`~repro.errors.SiriusError` it raises counts as failed.  Pair
    it with a resilient executor's ``run(query, on_error="degrade")`` so
    fatal failures surface as failed responses with their virtual latency.
    """
    # Imported here: repro.serving.cluster.replay imports these samplers.
    from repro.serving.cluster.replay import replay_cluster
    from repro.serving.identity import outcome_counts

    served: List[object] = []

    def serve(query):
        try:
            served.append(process_fn(query))
        except SiriusError:
            return None
        return served[-1]

    replay = replay_cluster(
        PoissonProcess(arrival_rate),
        live_service_sampler(serve, queries, seed=seed + 1),
        n_queries, seed=seed, warmup_fraction=warmup_fraction,
    )
    n_ok, n_degraded, n_failed = outcome_counts(served)
    raised = n_queries - len(served)  # every arrival is admitted and served once
    return ServingSimulationResult(replay, n_ok, n_degraded, n_failed + raised)


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
