"""Latency-variability studies (paper Figure 8).

- Figure 8a: per-service latency distributions across the query input set;
- Figure 8b: QA hot-component breakdown per voice query;
- Figure 8c: the correlation between QA latency and document-filter hits —
  the paper's explanation for QA's wide latency spread.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Distribution:
    """Summary statistics of a latency sample (seconds)."""

    samples: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ConfigurationError("distribution needs at least one sample")

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples)

    @property
    def maximum(self) -> float:
        return max(self.samples)

    @property
    def spread(self) -> float:
        """max/min ratio — QA's is the largest in the paper (1.7 s to 35 s)."""
        return self.maximum / self.minimum if self.minimum > 0 else float("inf")

    def percentile(self, q: float) -> float:
        if not 0 <= q <= 100:
            raise ConfigurationError("percentile must be in [0, 100]")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        position = q / 100 * (len(ordered) - 1)
        low = int(math.floor(position))
        high = min(low + 1, len(ordered) - 1)
        weight = position - low
        return ordered[low] * (1 - weight) + ordered[high] * weight


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (Figure 8c's statistic)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ConfigurationError("need two equal-length samples of size >= 2")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


@dataclass
class QAQueryRecord:
    """Per-question measurements driving Figures 8b and 8c."""

    question: str
    latency: float
    filter_hits: int
    component_seconds: Dict[str, float] = field(default_factory=dict)


#: Timed runs per question, after one untimed run that warms the caches.
WARM_RUNS = 5


def run_variability_study(qa_engine, questions: Sequence[str]) -> List[QAQueryRecord]:
    """Answer every question, recording latency, hits, and breakdown.

    Latency and component times are per-question medians over ``WARM_RUNS``
    warm runs: one ``perf_counter`` sample per question is as much scheduler
    as question on a shared machine.  Hits are deterministic.
    """
    from repro.profiling import Profiler

    records: List[QAQueryRecord] = []
    for question in questions:
        result = qa_engine.answer(question)
        profiles = []
        for _ in range(WARM_RUNS):
            profiler = Profiler()
            qa_engine.answer(question, profiler=profiler)
            profiles.append(profiler.profile)
        components = {
            name: statistics.median(profile.seconds.get(name, 0.0) for profile in profiles)
            for name in profiles[0].seconds
            if name.startswith("qa.")
        }
        records.append(
            QAQueryRecord(
                question=question,
                latency=statistics.median(profile.total for profile in profiles),
                filter_hits=result.stats.total_hits,
                component_seconds=components,
            )
        )
    return records


def latency_hits_correlation(records: Sequence[QAQueryRecord]) -> float:
    """Figure 8c: Pearson correlation of QA latency vs filter hits."""
    return pearson(
        [record.filter_hits for record in records],
        [record.latency for record in records],
    )


def service_distributions(responses) -> Dict[str, Distribution]:
    """Figure 8a: latency distribution per service from pipeline responses."""
    samples: Dict[str, List[float]] = {}
    for response in responses:
        for service, seconds in response.service_seconds.items():
            samples.setdefault(service, []).append(seconds)
    return {
        service: Distribution(tuple(values)) for service, values in samples.items()
    }
