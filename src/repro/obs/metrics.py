"""The arithmetic under every telemetry distribution.

The paper's serving argument is a statement about latency *distributions*
— Figure 8's 95th-percentile variability and the TPU paper's
p99-under-load — so a distribution is carried as a bounded **value
reservoir**, not a scalar mean: the raw observations collapsed to
``(value, count)`` pairs and capped at ``max_samples`` distinct values by
a deterministic *bottom-k* rule (keep the ``k`` values whose hash
priorities are smallest).  Below the cap the reservoir is lossless, so
percentile extraction is *exact* (numpy-compatible linear interpolation)
— which is what lets tests check a reported p50/p95/p99 against an
independent computation.  Above the cap (only reachable by continuous
streams with more than ``k`` distinct values) the kept values are a
uniform ``k``-subset of the distinct observations, so percentile ranks
carry an ``O(1/sqrt(k))`` error (±1.6 rank points at the default
``k = 4096``) while the observation count and integer-valued series such
as queue depths stay exact.

The bottom-k rule makes truncation itself mergeable: the ``k`` smallest
priorities of a union are always contained in the union of each side's
``k`` smallest, so canonicalizing a union of truncated pools equals the
truncated pool of the whole stream, and the sum is recomputed from the
canonical pool (never ``a.total + b.total``, whose float rounding would
depend on merge order).  The one store built on this arithmetic is
:class:`repro.obs.timeseries.RollupStore`.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default cap on *distinct* retained values per distribution.  Below it the
#: reservoir is lossless; above it percentiles carry the documented
#: ``O(1/sqrt(k))`` rank error.
DEFAULT_MAX_SAMPLES = 4096


def percentile(samples: Sequence[float], p: float) -> float:
    """Exact percentile with linear interpolation (numpy's default method).

    The interpolation is the one-sided ``a + t * (b - a)``; ``np.percentile``
    switches to ``b - (b - a) * (1 - t)`` from ``t = 0.5``, so the two can
    differ in the last ulp there (agreement to machine precision, not ``==``;
    the pinned reports depend on this form, so it stays).

    ``p`` in [0, 100].  Returns 0.0 for an empty sample set so reports on
    quiet services render without special-casing.
    """
    if not 0.0 <= p <= 100.0:
        raise ConfigurationError("percentile must be in [0, 100]")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * (p / 100.0)
    lower = int(math.floor(rank))
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + fraction * (ordered[upper] - ordered[lower])


def _reservoir_priority(value: float) -> int:
    """The hash priority that ranks a value for bottom-k retention.

    A pure function of the value — ``float.hex`` is an exact, canonical
    encoding — so every process ranks every value identically and sharded
    reservoirs merge deterministically.  The ``0:`` prefix is the seed the
    hash once took; it stays so truncated reservoirs keep their bytes.
    """
    payload = f"0:{float(value).hex()}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def _weighted_total(values: Sequence[float], weights: Sequence[int]) -> float:
    """Correctly-rounded sum of the expanded multiset, without expanding it.

    Equals ``math.fsum(value repeated weight times)`` exactly: each
    ``Fraction(value) * weight`` product is exact, their sum is exact, and
    the final ``float()`` rounds once — the same contract as ``fsum``.
    """
    if not values:
        return 0.0
    if all(weight == 1 for weight in weights):
        return math.fsum(values)
    return float(sum(Fraction(value) * weight for value, weight in zip(values, weights)))


def _weighted_percentile(
    values: Sequence[float], weights: Sequence[int], p: float
) -> float:
    """Percentile of the expanded multiset (linear interpolation), exactly.

    ``values`` must be sorted ascending with positive parallel ``weights``.
    Byte-identical to :func:`percentile` over the expanded multiset: the
    rank arithmetic and the interpolation formula are the same floats.
    """
    if not 0.0 <= p <= 100.0:
        raise ConfigurationError("percentile must be in [0, 100]")
    if not values:
        return 0.0
    population = sum(weights)
    rank = (population - 1) * (p / 100.0)
    lower = int(math.floor(rank))
    upper = min(lower + 1, population - 1)
    fraction = rank - lower

    def value_at(position: int) -> float:
        cumulative = 0
        for value, weight in zip(values, weights):
            cumulative += weight
            if position < cumulative:
                return value
        return values[-1]

    lower_value = value_at(lower)
    upper_value = value_at(upper)
    return lower_value + fraction * (upper_value - lower_value)


def _canonical_reservoir(
    pool: Dict[float, int], max_samples: int
) -> Tuple[Tuple[float, ...], Tuple[int, ...], float]:
    """Apply bottom-k truncation and return (sorted values, weights, total).

    A pure function of the pooled value→count map, which is what makes
    merge trees order-independent: any sequence of unions followed by this
    canonicalization lands on the same bytes.
    """
    if len(pool) > max_samples:
        ranked = sorted(
            pool, key=lambda value: (_reservoir_priority(value), value)
        )
        keep = set(ranked[:max_samples])
        pool = {value: count for value, count in pool.items() if value in keep}
    ordered = tuple(sorted(pool))
    weights = tuple(pool[value] for value in ordered)
    return ordered, weights, _weighted_total(ordered, weights)
