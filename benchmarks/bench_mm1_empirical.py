"""Empirical validation of the M/M/1 analysis behind Figure 17.

The paper's throughput-vs-load curves assume exponential service.  Here the
virtual-time replay (one replica, Poisson arrivals) (1) reproduces the
analytic M/M/1 response times, and (2) replays *measured* Sirius query
latencies through the queue to show the queueing conclusions survive the
real latency distribution.
"""

import pytest

from repro.analysis import format_table
from repro.datacenter import (
    MM1Queue,
    PoissonProcess,
    empirical_sampler,
    exponential_sampler,
)
from repro.serving.cluster import replay_cluster, seeded_replay

LOADS = (0.2, 0.5, 0.8)


def mm1_point(load):
    """(replayed, analytic) mean response of one M/M/1 point, service 1 s."""
    replayed = seeded_replay("poisson", load, 1.0, 20_000, seed=7).mean_response
    return replayed, MM1Queue(1.0).response_time(load)


def test_analytic_vs_simulated_report(save_report):
    rows = []
    for load in LOADS:
        simulated, analytic = mm1_point(load)
        rows.append(
            [f"{load:.0%}", f"{analytic:.2f}", f"{simulated:.2f}",
             f"{abs(simulated - analytic) / analytic:.1%}"]
        )
    report = format_table(
        "M/M/1 validation: mean response time (service time = 1 s)",
        ["Load", "Analytic", "Simulated", "Error"], rows,
    )
    save_report("mm1_empirical_validation", report)
    for load in LOADS[:2]:
        simulated, analytic = mm1_point(load)
        assert simulated == pytest.approx(analytic, rel=0.12)


def test_real_latency_distribution_queue(responses, save_report):
    """Queue replay fed with measured Sirius latencies (G/G/1)."""
    latencies = [response.latency for response in responses]
    mean_latency = sum(latencies) / len(latencies)
    rows = []
    for load in LOADS:
        arrivals = PoissonProcess(load / mean_latency)
        empirical = replay_cluster(
            arrivals, empirical_sampler(latencies, seed=3), 8000
        )
        exponential = replay_cluster(
            arrivals, exponential_sampler(mean_latency, seed=3), 8000
        )
        rows.append(
            [f"{load:.0%}", f"{empirical.mean_response * 1000:.1f}",
             f"{exponential.mean_response * 1000:.1f}"]
        )
    report = format_table(
        "Queueing with measured Sirius latencies vs exponential assumption "
        "(mean response ms)",
        ["Load", "Measured dist.", "Exponential"], rows,
    )
    save_report("mm1_empirical_sirius", report)


def test_response_grows_with_load(responses):
    latencies = [response.latency for response in responses]
    mean_latency = sum(latencies) / len(latencies)
    results = [
        replay_cluster(
            PoissonProcess(load / mean_latency),
            empirical_sampler(latencies, seed=5),
            4000,
        ).mean_response
        for load in LOADS
    ]
    assert results[0] < results[1] < results[2]


def test_bench_simulation(benchmark):
    result = benchmark(
        replay_cluster, PoissonProcess(0.5), exponential_sampler(1.0, seed=1), 2000
    )
    assert result.n_admitted > 0
