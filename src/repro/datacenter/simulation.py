"""Service-time samplers: the pluggable service side of the queue model.

The paper models servers as M/M/1 queues analytically.  The one loop that
checks it empirically is the virtual-time replay
(:func:`repro.serving.cluster.replay.replay_cluster`): Poisson arrivals
from :class:`repro.datacenter.arrivals.PoissonProcess`, per-replica FIFO
queues (one replica per core — the paper's baseline is four per-core
M/M/1 queues), and service times from one of the samplers here —
exponential (the M assumption), deterministic (M/D/1), a recorded
latency sample (:func:`empirical_sampler`), or a measured histogram
(:func:`histogram_sampler`), so the queueing conclusions are checked
against the implementation's own latency distribution.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.errors import ConfigurationError


def exponential_sampler(mean: float, seed: int = 0) -> Callable[[], float]:
    """Service-time sampler for the M (exponential) assumption."""
    if mean <= 0:
        raise ConfigurationError("mean service time must be positive")
    rng = random.Random(seed)
    return lambda: rng.expovariate(1.0 / mean)


def empirical_sampler(samples: Sequence[float], seed: int = 0) -> Callable[[], float]:
    """Sampler drawing from measured latencies (e.g. real Sirius queries)."""
    if not samples:
        raise ConfigurationError("need at least one sample")
    if min(samples) <= 0:
        raise ConfigurationError("latency samples must be positive")
    rng = random.Random(seed)
    pool = list(samples)
    return lambda: rng.choice(pool)


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
