"""The scalability gap (paper Figures 1, 7a, and 21).

The gap is the ratio between an average IPA query's compute demand and an
average Web Search query's.  The paper measures 15 s vs 91 ms → 165x; our
Python pipeline measures its own pair of latencies and derives the same
ratio, then Figure 21 shows how accelerated datacenters shrink it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError

#: The paper's measured numbers, used as reference constants.
PAPER_WEB_SEARCH_LATENCY = 0.091   # seconds (Apache Nutch, Haswell)
PAPER_SIRIUS_LATENCY = 15.0        # seconds (average over 42 queries)
PAPER_GAP = 165.0                  # machines-scaling factor


@dataclass(frozen=True)
class ScalabilityGap:
    """Compute-demand ratio between IPA and Web Search queries."""

    web_search_latency: float
    ipa_latency: float

    def __post_init__(self) -> None:
        if self.web_search_latency <= 0 or self.ipa_latency <= 0:
            raise ConfigurationError("latencies must be positive")

    @property
    def gap(self) -> float:
        """Machines needed per machine of Web Search capacity (query parity)."""
        return self.ipa_latency / self.web_search_latency

    def machines_ratio(self, ipa_to_ws_query_ratio: float) -> float:
        """Figure 7a right panel: resource scaling vs the IPA query share.

        With IPA queries arriving at ``r`` times the Web Search rate, the
        datacenter must grow to ``1 + gap * r`` of its original size to hold
        throughput (the WS machines plus gap-many machines per IPA unit).
        """
        if ipa_to_ws_query_ratio < 0:
            raise ConfigurationError("query ratio must be >= 0")
        return 1.0 + self.gap * ipa_to_ws_query_ratio

    def bridged_gap(self, query_latency_improvement: float) -> float:
        """Figure 21: the residual gap after acceleration."""
        if query_latency_improvement <= 0:
            raise ConfigurationError("improvement must be positive")
        return self.gap / query_latency_improvement


#: Each latency is the best of this many timed passes over the queries, after
#: one untimed warm-up pass: with a single cold pass, two regenerations of
#: Figure 7a from one tree on one box read gaps of 178x and 224x.
TIMED_PASSES = 5


def _best_pass_mean(run_one, items: Sequence) -> float:
    """Per-item seconds of the fastest of ``TIMED_PASSES`` passes of
    ``run_one`` over ``items``, after one untimed warm-up pass."""
    if not items:
        raise ConfigurationError("need at least one query")
    for item in items:
        run_one(item)
    best = float("inf")
    for _ in range(TIMED_PASSES):
        start = time.perf_counter()
        for item in items:
            run_one(item)
        best = min(best, time.perf_counter() - start)
    return best / len(items)


def measure_web_search_latency(engine, queries: Sequence[str]) -> float:
    """Mean per-query latency of the search engine (the WS baseline): the
    best of five warm passes over ``queries``."""
    return _best_pass_mean(engine.search, list(queries))


def measure_sirius_latency(pipeline, queries) -> float:
    """Mean per-query wall latency of the full Sirius pipeline: the best of
    five warm passes over ``queries``."""
    return _best_pass_mean(pipeline.process, list(queries))


def paper_gap() -> ScalabilityGap:
    """The paper's reference gap (15 s vs 91 ms ≈ 165x)."""
    return ScalabilityGap(PAPER_WEB_SEARCH_LATENCY, PAPER_SIRIUS_LATENCY)
