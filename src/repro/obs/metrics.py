"""Counters and latency histograms with a snapshot/merge protocol.

The paper's serving argument is a statement about latency *distributions*
— Figure 8's 95th-percentile variability and the TPU paper's
p99-under-load — so the metrics layer is built around histograms, not
scalar means.  A :class:`Histogram` keeps two views of the same data:

- **log-spaced bucket counts** (the cheap, boundable view a production
  system exports — default boundaries cover 100 µs to ~100 s, five
  buckets per decade), and
- **a bounded value reservoir**: the raw observations, collapsed to
  ``(value, count)`` pairs and capped at :data:`DEFAULT_MAX_SAMPLES`
  distinct values by a deterministic *bottom-k* rule (keep the ``k``
  values whose seeded hash priorities are smallest).  Below the cap the
  reservoir is lossless, so percentile extraction is *exact*
  (numpy-compatible linear interpolation) — which is what lets tests
  check the reported p50/p95/p99 against an independent computation.
  Above the cap (only reachable by continuous streams with more than
  ``k`` distinct values) the kept values are a uniform ``k``-subset of
  the distinct observations, so percentile ranks carry an
  ``O(1/sqrt(k))`` error (±1.6 rank points at the default ``k = 4096``)
  while bucket counts, the observation count, and integer-valued series
  such as queue depths stay exact.

**Snapshot/merge.**  Process-backend workers each accumulate into their
own registry; the picklable :class:`MetricsSnapshot` crosses the pipe and
merges into the parent.  Merge is exact, associative, and commutative:
bucket counts add, reservoirs union value-wise (counts add) and re-apply
the same bottom-k rule, and the sum is recomputed from the canonical
reservoir (never ``a.total + b.total``, whose float rounding would depend
on merge order) — so any merge tree over the same observations yields
byte-identical snapshots (the property suite locks this down).  The
bottom-k rule makes truncation itself mergeable: the ``k`` smallest
priorities of a union are always contained in the union of each side's
``k`` smallest, so a merge of truncated snapshots equals the truncated
snapshot of the pooled stream.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, TraceError


def log_buckets(
    lowest: float = 1e-4,
    highest: float = 100.0,
    per_decade: int = 5,
) -> Tuple[float, ...]:
    """Log-spaced histogram boundaries from ``lowest`` to >= ``highest``.

    Boundaries are ``lowest * 10**(k/per_decade)`` — a geometric ladder
    whose relative resolution is constant across six decades of latency,
    which is what a tail-latency histogram needs (1 ms and 1 s both get
    ``per_decade`` buckets per decade).
    """
    if lowest <= 0 or highest <= lowest:
        raise ConfigurationError("need 0 < lowest < highest")
    if per_decade < 1:
        raise ConfigurationError("per_decade must be >= 1")
    bounds: List[float] = []
    k = 0
    while True:
        bound = lowest * 10.0 ** (k / per_decade)
        bounds.append(bound)
        if bound >= highest:
            break
        k += 1
    return tuple(bounds)


DEFAULT_BUCKETS = log_buckets()

#: Default cap on *distinct* retained values per histogram.  Below it the
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


def _reservoir_priority(seed: int, value: float) -> int:
    """The seeded hash priority that ranks a value for bottom-k retention.

    A pure function of ``(seed, value)`` — ``float.hex`` is an exact,
    canonical encoding — so every process ranks every value identically
    and sharded reservoirs merge deterministically.
    """
    payload = f"{seed}:{float(value).hex()}".encode()
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
    pool: Dict[float, int], max_samples: int, seed: int
) -> Tuple[Tuple[float, ...], Tuple[int, ...], float]:
    """Apply bottom-k truncation and return (sorted values, weights, total).

    A pure function of the pooled value→count map, which is what makes
    merge trees order-independent: any sequence of unions followed by this
    canonicalization lands on the same bytes.
    """
    if len(pool) > max_samples:
        ranked = sorted(
            pool, key=lambda value: (_reservoir_priority(seed, value), value)
        )
        keep = set(ranked[:max_samples])
        pool = {value: count for value, count in pool.items() if value in keep}
    ordered = tuple(sorted(pool))
    weights = tuple(pool[value] for value in ordered)
    return ordered, weights, _weighted_total(ordered, weights)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Picklable, mergeable state of one histogram.

    ``samples`` holds the *distinct* retained values, sorted ascending,
    with parallel observation ``weights`` — the canonical representation
    that makes merging order-independent down to the byte.  ``observed``
    is the true observation count; it exceeds ``sum(weights)`` only when
    the bottom-k reservoir has truncated (see the module docstring for
    the error bound that applies then).
    """

    name: str
    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]        #: len(buckets) + 1 (last = overflow); exact
    samples: Tuple[float, ...]     #: sorted distinct retained values
    weights: Tuple[int, ...]       #: per-value observation counts (parallel)
    total: float                   #: fsum-exact sum over retained (value, count)
    observed: int                  #: true observation count (always exact)
    max_samples: int = DEFAULT_MAX_SAMPLES
    reservoir_seed: int = 0

    @property
    def count(self) -> int:
        """The true number of observations (exact even when truncated)."""
        return self.observed

    @property
    def kept(self) -> int:
        """Observations represented in the reservoir (== count unless truncated)."""
        return sum(self.weights)

    @property
    def truncated(self) -> bool:
        return self.kept < self.observed

    @property
    def mean(self) -> float:
        kept = self.kept
        return self.total / kept if kept else 0.0

    def percentile(self, p: float) -> float:
        return _weighted_percentile(self.samples, self.weights, p)


def merge_histograms(a: HistogramSnapshot, b: HistogramSnapshot) -> HistogramSnapshot:
    """Combine two snapshots of the same histogram, exactly.

    Associative and commutative: bucket counts add, reservoirs union
    value-wise (counts add) and re-apply the shared bottom-k rule, and the
    total is recomputed from the canonical reservoir — so any merge tree
    over the same observations yields byte-identical snapshots.
    """
    if a.name != b.name:
        raise TraceError(f"cannot merge histograms {a.name!r} and {b.name!r}")
    if a.buckets != b.buckets:
        raise TraceError(
            f"histogram {a.name!r} snapshots have mismatched bucket boundaries"
        )
    if a.max_samples != b.max_samples or a.reservoir_seed != b.reservoir_seed:
        raise TraceError(
            f"histogram {a.name!r} snapshots have mismatched reservoir "
            "configuration (max_samples/seed)"
        )
    pool: Dict[float, int] = {}
    for snapshot in (a, b):
        for value, weight in zip(snapshot.samples, snapshot.weights):
            pool[value] = pool.get(value, 0) + weight
    samples, weights, total = _canonical_reservoir(
        pool, a.max_samples, a.reservoir_seed
    )
    return HistogramSnapshot(
        name=a.name,
        buckets=a.buckets,
        counts=tuple(x + y for x, y in zip(a.counts, b.counts)),
        samples=samples,
        weights=weights,
        total=total,
        observed=a.observed + b.observed,
        max_samples=a.max_samples,
        reservoir_seed=a.reservoir_seed,
    )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Picklable state of a whole registry (counters + histograms)."""

    counters: Tuple[Tuple[str, int], ...] = ()
    histograms: Tuple[HistogramSnapshot, ...] = ()

    def counter_value(self, name: str) -> int:
        for key, value in self.counters:
            if key == name:
                return value
        return 0

    def histogram_named(self, name: str) -> Optional[HistogramSnapshot]:
        for histogram in self.histograms:
            if histogram.name == name:
                return histogram
        return None


def merge_snapshots(a: MetricsSnapshot, b: MetricsSnapshot) -> MetricsSnapshot:
    """Combine two registry snapshots (associative, commutative, exact)."""
    counters: Dict[str, int] = dict(a.counters)
    for name, value in b.counters:
        counters[name] = counters.get(name, 0) + value
    histograms: Dict[str, HistogramSnapshot] = {h.name: h for h in a.histograms}
    for histogram in b.histograms:
        if histogram.name in histograms:
            histograms[histogram.name] = merge_histograms(
                histograms[histogram.name], histogram
            )
        else:
            histograms[histogram.name] = histogram
    return MetricsSnapshot(
        counters=tuple(sorted(counters.items())),
        histograms=tuple(
            histograms[name] for name in sorted(histograms)
        ),
    )


class Counter:
    """A monotonically increasing integer metric (thread-safe)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Histogram:
    """A log-bucketed latency histogram with a bounded value reservoir.

    Thread-safe.  Bucket ``i`` counts observations in
    ``(buckets[i-1], buckets[i]]`` (first bucket: ``<= buckets[0]``); the
    final slot counts overflow beyond the last boundary.  Raw observations
    are retained as ``(value, count)`` pairs capped at ``max_samples``
    distinct values by the deterministic bottom-k rule described in the
    module docstring — memory stays bounded at replay scale while repeated
    values (queue depths, fan-out widths) remain exact at any volume.
    """

    def __init__(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        reservoir_seed: int = 0,
    ):
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        if max_samples < 1:
            raise ConfigurationError("max_samples must be >= 1")
        self.name = name
        self.buckets = bounds
        self.max_samples = max_samples
        self.reservoir_seed = reservoir_seed
        self._counts = [0] * (len(bounds) + 1)
        self._pool: Dict[float, int] = {}
        #: Max-heap (via negation) over (priority, value) of retained values.
        self._heap: List[Tuple[int, float]] = []
        self._observed = 0
        self._lock = threading.Lock()

    def _retain(self, value: float, count: int) -> None:
        """Fold ``count`` observations of ``value`` into the reservoir.

        Caller holds the lock.  Eviction is permanent: the retained max
        priority only decreases, so a rejected value can never rank into
        the final bottom-k — sequential maintenance therefore equals the
        canonical bottom-k of the full stream.
        """
        if value in self._pool:
            self._pool[value] += count
            return
        priority = _reservoir_priority(self.reservoir_seed, value)
        if len(self._pool) >= self.max_samples:
            worst_priority, worst_negated = self._heap[0]
            worst = (-worst_priority, -worst_negated)
            if (priority, value) > worst:
                return
            heapq.heappop(self._heap)
            del self._pool[-worst_negated]
        self._pool[value] = count
        heapq.heappush(self._heap, (-priority, -value))

    def observe(self, value: float, count: int = 1) -> None:
        if value < 0:
            raise ConfigurationError("latency observations must be >= 0")
        if count < 1:
            raise ConfigurationError("observation count must be >= 1")
        value = float(value)
        slot = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[slot] += count
            self._observed += count
            self._retain(value, count)

    @property
    def count(self) -> int:
        with self._lock:
            return self._observed

    @property
    def samples(self) -> Tuple[float, ...]:
        """The distinct retained values, sorted ascending."""
        with self._lock:
            return tuple(sorted(self._pool))

    @property
    def weights(self) -> Tuple[int, ...]:
        """Observation counts parallel to :attr:`samples`."""
        with self._lock:
            return tuple(count for _, count in sorted(self._pool.items()))

    @property
    def mean(self) -> float:
        return self.snapshot().mean

    def percentile(self, p: float) -> float:
        snapshot = self.snapshot()
        return _weighted_percentile(snapshot.samples, snapshot.weights, p)

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            pool = dict(self._pool)
            counts = tuple(self._counts)
            observed = self._observed
        samples, weights, total = _canonical_reservoir(
            pool, self.max_samples, self.reservoir_seed
        )
        return HistogramSnapshot(
            name=self.name,
            buckets=self.buckets,
            counts=counts,
            samples=samples,
            weights=weights,
            total=total,
            observed=observed,
            max_samples=self.max_samples,
            reservoir_seed=self.reservoir_seed,
        )

    def absorb(self, snapshot: HistogramSnapshot) -> None:
        """Fold a worker snapshot in exactly (bucket counts add, reservoirs
        union) — the in-place counterpart of :func:`merge_histograms`."""
        if snapshot.name != self.name:
            raise TraceError(
                f"cannot absorb snapshot {snapshot.name!r} into {self.name!r}"
            )
        if snapshot.buckets != self.buckets:
            raise TraceError(
                f"histogram {self.name!r} snapshot has mismatched bucket boundaries"
            )
        if (
            snapshot.max_samples != self.max_samples
            or snapshot.reservoir_seed != self.reservoir_seed
        ):
            raise TraceError(
                f"histogram {self.name!r} snapshot has mismatched reservoir "
                "configuration (max_samples/seed)"
            )
        with self._lock:
            for slot, count in enumerate(snapshot.counts):
                self._counts[slot] += count
            self._observed += snapshot.observed
            for value, weight in zip(snapshot.samples, snapshot.weights):
                self._retain(value, weight)


class MetricsRegistry:
    """One process's named counters and histograms (thread-safe).

    Workers snapshot their registry (:meth:`snapshot` → picklable), ship it
    across the pipe, and the parent folds it in with :meth:`merge`; any
    merge order yields the same state.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = Counter(name)
                self._counters[name] = counter
        return counter

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        max_samples: Optional[int] = None,
    ) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(
                    name,
                    buckets=buckets,
                    max_samples=(
                        max_samples if max_samples is not None else DEFAULT_MAX_SAMPLES
                    ),
                )
                self._histograms[name] = histogram
        if buckets is not None and tuple(buckets) != histogram.buckets:
            raise ConfigurationError(
                f"histogram {name!r} already registered with different buckets"
            )
        if max_samples is not None and max_samples != histogram.max_samples:
            raise ConfigurationError(
                f"histogram {name!r} already registered with different max_samples"
            )
        return histogram

    def histogram_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._histograms))

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            counters = tuple(
                sorted((name, c.value) for name, c in self._counters.items())
            )
            histograms = [self._histograms[name] for name in sorted(self._histograms)]
        return MetricsSnapshot(
            counters=counters,
            histograms=tuple(histogram.snapshot() for histogram in histograms),
        )

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker's snapshot into this registry."""
        for name, value in snapshot.counters:
            self.counter(name).inc(value)
        for incoming in snapshot.histograms:
            histogram = self.histogram(
                incoming.name,
                buckets=incoming.buckets,
                max_samples=incoming.max_samples,
            )
            histogram.absorb(incoming)


# -- serving-stream recording -------------------------------------------------------

#: Histogram/counter names the serving layer records under.
E2E_HISTOGRAM = "serve.e2e.seconds"

#: Time from session open to the first non-empty partial hypothesis — the
#: streaming gateway's responsiveness metric, reported next to end-to-end
#: latency (the user hears *something* long before the answer is ready).
TTFP_HISTOGRAM = "serve.ttfp.seconds"

#: Measured router queueing delay (assignment → replica dispatch) — the "AI
#: tax" of cluster serving, kept separate from every service's own wait.
ROUTER_WAIT_HISTOGRAM = "serve.router.wait_seconds"

#: Replica queue depth observed by the router at each assignment (the load
#: signal its balancing policies act on).
QUEUE_DEPTH_HISTOGRAM = "serve.router.queue_depth"

#: Shards fanned out to per sharded-service call (scatter width).
SHARD_FANOUT_HISTOGRAM = "serve.shard.fanout"

#: Queries rejected by admission control at the router.
ROUTER_REJECTED_COUNTER = "serve.router.rejected"


def service_histogram_name(label: str) -> str:
    """Per-service latency histogram name for a service label."""
    return f"serve.{label.lower()}.seconds"


def wait_histogram_name(label: str) -> str:
    """Per-service queueing-delay histogram name for a service label."""
    return f"serve.{label.lower()}.wait_seconds"


def outcome_counter_name(outcome: str) -> str:
    """Outcome counter name for ``"ok"`` / ``"degraded"`` / ``"failed"``."""
    return f"serve.{outcome}"


def replica_counter_name(replica: int) -> str:
    """Per-replica placement counter name for a replica index."""
    return f"serve.router.replica.{replica}"


def bench_histogram_name(benchmark: str) -> str:
    """Wall-time histogram name for a registered benchmark."""
    return f"bench.{benchmark}.seconds"


def response_outcome(response) -> str:
    """``"ok"`` / ``"degraded"`` / ``"failed"``; a failed response is not
    also degraded."""
    if getattr(response, "failed", False):
        return "failed"
    if getattr(response, "degraded", False):
        return "degraded"
    return "ok"


def record_response(registry: MetricsRegistry, response) -> None:
    """Record one served query: end-to-end latency, per-service latencies,
    and the ok/degraded/failed outcome counters.

    Duck-typed over :class:`~repro.core.query.SiriusResponse`, so the
    metrics layer needs no import of the core package.
    """
    registry.histogram(E2E_HISTOGRAM).observe(max(response.wall_seconds, 0.0))
    for label, seconds in response.service_seconds.items():
        registry.histogram(service_histogram_name(label)).observe(max(seconds, 0.0))
    registry.counter(outcome_counter_name(response_outcome(response))).inc()


def record_responses(registry: MetricsRegistry, responses: Sequence) -> None:
    """Record a whole response stream (see :func:`record_response`)."""
    for response in responses:
        record_response(registry, response)
