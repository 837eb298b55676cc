"""Seeded arrival processes for open-loop traffic replay.

The arrival side of the one queueing loop
(:func:`repro.serving.cluster.replay.replay_cluster`; its service side is
:mod:`repro.datacenter.simulation`).  Three processes ship here, all pure
in their seed:

- :class:`PoissonProcess` — constant-rate memoryless arrivals, the M of
  every M/M/1 comparison;
- :class:`DiurnalProcess` — a sinusoidally rate-modulated Poisson process
  (day/night swing), generated by *thinning* (Lewis & Shedler): draw
  candidates at the peak rate, keep each with probability
  ``rate(t) / peak``.  Thinning is exact for any bounded rate function and
  keeps the draw sequence a pure function of the seed;
- :class:`BurstyProcess` — a two-state Markov-modulated Poisson process
  (calm rate / burst rate, exponentially distributed state holding times),
  the standard model for flash-crowd traffic whose tails an autoscaler
  must absorb.

All processes yield *inter-arrival-ordered absolute times* (strictly
increasing floats, seconds from 0).
"""

from __future__ import annotations

import abc
import math
import random
from typing import Iterator, List

from repro.errors import ConfigurationError

#: Canonical process names (CLI ``--arrivals`` values).
POISSON = "poisson"
DIURNAL = "diurnal"
BURSTY = "bursty"


#: The diurnal swing: the rate's relative amplitude and its period (s).
DIURNAL_AMPLITUDE = 0.5
DIURNAL_PERIOD = 60.0
#: Mean seconds a bursty process holds its calm and its burst state.
MEAN_CALM = 20.0
MEAN_BURST = 5.0


class ArrivalProcess(abc.ABC):
    """A deterministic stream of absolute arrival times.

    ``times(n, seed)`` must be a pure function of ``(n, seed)`` — same
    arguments, byte-identical stream — and a prefix of a longer draw
    (``times(100, s)`` is exactly ``times(1000, s)[:100]``), which is what
    lets the replay driver extrapolate tail estimates from a short run to
    a model fleet serving millions of queries.
    """

    name: str = ""

    #: Long-run mean arrival rate (queries/second), for utilization math.
    mean_rate: float = 0.0

    @abc.abstractmethod
    def stream(self, seed: int = 0) -> Iterator[float]:
        """Yield strictly increasing absolute arrival times forever."""

    def times(self, n: int, seed: int = 0) -> List[float]:
        """The first ``n`` arrival times of the seeded stream."""
        if n < 1:
            raise ConfigurationError("need n >= 1 arrivals")
        stream = self.stream(seed=seed)
        return [next(stream) for _ in range(n)]


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at a constant rate."""

    name = POISSON

    def __init__(self, rate: float):
        if rate <= 0:
            raise ConfigurationError("arrival rate must be positive")
        self.rate = rate
        self.mean_rate = rate

    def stream(self, seed: int = 0) -> Iterator[float]:
        rng = random.Random(f"{seed}:poisson")
        clock = 0.0
        while True:
            clock += rng.expovariate(self.rate)
            yield clock


class DiurnalProcess(ArrivalProcess):
    """Sinusoidally modulated Poisson arrivals (the day/night swing).

    The instantaneous rate is
    ``base * (1 + DIURNAL_AMPLITUDE * sin(2*pi*t / DIURNAL_PERIOD))``; with
    the amplitude in [0, 1] it never goes negative and the long-run mean
    rate is exactly ``base``.  Arrivals are generated by thinning at the peak rate
    ``base * (1 + DIURNAL_AMPLITUDE)``.
    """

    name = DIURNAL

    def __init__(self, base_rate: float):
        if base_rate <= 0:
            raise ConfigurationError("base_rate must be positive")
        self.base_rate = base_rate
        self.mean_rate = base_rate

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at absolute time ``t``."""
        swing = 1.0 + DIURNAL_AMPLITUDE * math.sin(2.0 * math.pi * t / DIURNAL_PERIOD)
        return max(self.base_rate * swing, 0.0)

    def stream(self, seed: int = 0) -> Iterator[float]:
        rng = random.Random(f"{seed}:diurnal")
        peak = self.base_rate * (1.0 + DIURNAL_AMPLITUDE)
        clock = 0.0
        while True:
            clock += rng.expovariate(peak)
            if rng.random() < self.rate_at(clock) / peak:
                yield clock


class BurstyProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson arrivals (calm / burst).

    The process alternates between a *calm* state (rate ``base_rate``) and
    a *burst* state (rate ``burst_rate``); holding times in each state are
    exponential with means ``MEAN_CALM`` and ``MEAN_BURST``.  Flash-crowd
    traffic in miniature: long quiet stretches punctuated by arrival storms
    several times the mean rate — exactly the shape that separates a
    tail-aware autoscaler from a mean-rate capacity plan.
    """

    name = BURSTY

    def __init__(self, base_rate: float, burst_rate: float):
        if base_rate <= 0 or burst_rate <= base_rate:
            raise ConfigurationError("need 0 < base_rate < burst_rate")
        self.base_rate = base_rate
        self.burst_rate = burst_rate
        calm_share = MEAN_CALM / (MEAN_CALM + MEAN_BURST)
        self.mean_rate = calm_share * base_rate + (1 - calm_share) * burst_rate

    def stream(self, seed: int = 0) -> Iterator[float]:
        rng = random.Random(f"{seed}:bursty")
        clock = 0.0
        bursting = False
        state_ends = rng.expovariate(1.0 / MEAN_CALM)
        while True:
            rate = self.burst_rate if bursting else self.base_rate
            gap = rng.expovariate(rate)
            if clock + gap >= state_ends:
                # The state flips before this arrival would land: restart
                # the draw from the boundary in the new state (memoryless,
                # so discarding the partial gap is exact).
                clock = state_ends
                bursting = not bursting
                mean_hold = MEAN_BURST if bursting else MEAN_CALM
                state_ends = clock + rng.expovariate(1.0 / mean_hold)
                continue
            clock += gap
            yield clock


def make_process(name: str, rate: float) -> ArrivalProcess:
    """Build a named arrival process around a base rate (a bursty one
    bursts at four times it)."""
    if name == POISSON:
        return PoissonProcess(rate)
    if name == DIURNAL:
        return DiurnalProcess(rate)
    if name == BURSTY:
        return BurstyProcess(rate, rate * 4.0)
    raise ConfigurationError(
        f"unknown arrival process {name!r} "
        f"(available: {POISSON}, {DIURNAL}, {BURSTY})"
    )
