"""M/M/1 queueing model for server load analysis (paper Figure 17).

Each server (or core) is modeled as an M/M/1 queue: Poisson arrivals at rate
λ, exponential service at rate μ.  Mean response time T = 1/(μ - λ).  The
paper's Figure 17 asks: holding response time at the *baseline* server's
level for a given load, how much more load can an accelerated server absorb?
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MM1Queue:
    """An M/M/1 queue parameterized by its mean service time (seconds)."""

    service_time: float

    def __post_init__(self) -> None:
        if self.service_time <= 0:
            raise ConfigurationError("service time must be positive")

    @property
    def service_rate(self) -> float:
        return 1.0 / self.service_time

    def utilization(self, arrival_rate: float) -> float:
        return arrival_rate * self.service_time

    def response_time(self, arrival_rate: float) -> float:
        """Mean time in system; infinite at or beyond saturation."""
        if arrival_rate < 0:
            raise ConfigurationError("arrival rate must be >= 0")
        if arrival_rate >= self.service_rate:
            return float("inf")
        return 1.0 / (self.service_rate - arrival_rate)

    def waiting_time(self, arrival_rate: float) -> float:
        return self.response_time(arrival_rate) - self.service_time

    def queue_length(self, arrival_rate: float) -> float:
        """Mean number in system (Little's law)."""
        return arrival_rate * self.response_time(arrival_rate)

    def max_load_for_response_time(self, target: float) -> float:
        """Largest arrival rate keeping mean response time <= ``target``."""
        if target < self.service_time:
            return 0.0
        return self.service_rate - 1.0 / target


def mm1_percentile(mean_service: float, load: float, p: float) -> float:
    """Analytic M/M/1 response-time percentile.

    Response time in an M/M/1 queue is exponential with mean
    ``T = s / (1 - rho)``, so the ``p``-th percentile is
    ``-T * ln(1 - p/100)`` (``T`` is :meth:`MM1Queue.response_time` at
    ``lambda = rho / s``) — the closed form the measured-distribution
    simulation is compared against in ``repro trace-report --mm1``.
    """
    if mean_service <= 0:
        raise ConfigurationError("mean service time must be positive")
    if not 0 < load < 1:
        raise ConfigurationError("load must be in (0, 1)")
    if not 0 <= p < 100:
        raise ConfigurationError("percentile must be in [0, 100)")
    mean_response = mean_service / (1.0 - load)
    return -mean_response * math.log(1.0 - p / 100.0)


def throughput_improvement_at_load(
    speedup: float,
    load: float,
    baseline_cores: int = 4,
) -> float:
    """Figure 17's quantity for one (platform, service, load) point.

    The baseline server runs ``baseline_cores`` M/M/1 queues (query-level
    parallelism), each at utilization ``load``; its mean response time sets
    the latency target.  The accelerated server is one M/M/1 queue with
    service time reduced by ``speedup``; we report how much more total load
    it absorbs at the same response-time target.

    At load -> 1 this converges to speedup / baseline_cores (Figure 16's
    bound); at low load it is far larger — matching the paper's observation
    that medium-to-low-load datacenters benefit the most.
    """
    if not 0 < load < 1:
        raise ConfigurationError("load must be in (0, 1)")
    if speedup <= 0:
        raise ConfigurationError("speedup must be positive")
    baseline = MM1Queue(service_time=1.0)
    target = baseline.response_time(arrival_rate=load)
    accelerated = MM1Queue(service_time=1.0 / speedup)
    absorbed = accelerated.max_load_for_response_time(target)
    baseline_total = baseline_cores * load
    return absorbed / baseline_total


def improvement_curve(
    speedup: float,
    loads: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    baseline_cores: int = 4,
) -> List[float]:
    """Figure 17 series: improvement at each load level (darker = higher)."""
    return [
        throughput_improvement_at_load(speedup, load, baseline_cores)
        for load in loads
    ]
