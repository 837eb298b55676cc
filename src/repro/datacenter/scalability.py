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


def measure_web_search_latency(engine, queries: Sequence[str]) -> float:
    """Mean per-query latency of the search engine (the WS baseline), over
    three passes of ``queries``."""
    if not queries:
        raise ConfigurationError("need at least one query")
    start = time.perf_counter()
    count = 0
    for _ in range(3):
        for query in queries:
            engine.search(query)
            count += 1
    return (time.perf_counter() - start) / count


def measure_sirius_latency(pipeline, queries) -> float:
    """Mean per-query wall latency of the full Sirius pipeline."""
    if not queries:
        raise ConfigurationError("need at least one query")
    start = time.perf_counter()
    for query in queries:
        pipeline.process(query)
    return (time.perf_counter() - start) / len(queries)


def paper_gap() -> ScalabilityGap:
    """The paper's reference gap (15 s vs 91 ms ≈ 165x)."""
    return ScalabilityGap(PAPER_WEB_SEARCH_LATENCY, PAPER_SIRIUS_LATENCY)
