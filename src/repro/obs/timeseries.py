"""Windowed metric rollups over virtual time.

At fleet scale the end-of-run aggregate is the wrong unit of observability
— the tail-at-scale literature's signals (burning error budgets, windowed
p99s, a replica draining behind the others) are all *time-local*.  This
module is the bounded-cost answer: a :class:`RollupStore` buckets every
metric into fixed-width windows of **virtual time** (replay seconds, or
stream ordinals for span exports — never wall clocks), keyed by metric ×
label set, so the cluster replay driver and the live fleet can emit
per-tick series instead of one number per run.

Two cell kinds:

- **counters** — exact integer sums per ``(metric, labels, window)``;
- **value panels** — per-window distributions (queue depth, router wait,
  service seconds ...) carried as the same deterministic bottom-k
  ``(value, weight)`` reservoir the metrics layer uses
  (:mod:`repro.obs.metrics`), plus exact ``observed``/``min``/``max``.

Everything follows the registry's snapshot/merge discipline:
:meth:`RollupStore.snapshot` is picklable and canonically sorted, and
:func:`merge_rollup_snapshots` is associative, commutative, and
fsum-exact — counters add, reservoirs union value-wise and re-apply the
shared bottom-k rule, min/max fold — so per-replica rollups produced by
process workers merge into one fleet view in any order, byte-identically
(the property suite splits streams across window boundaries and checks
exactly this).

:func:`rollups_from_spans` projects a deterministic (timing-stripped)
span export onto rollups using the stream ordinal as the virtual clock,
which is what lets ``repro fleet-report`` render the same windowed
dashboard from a live chaos run on any backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, TraceError
from repro.obs.metrics import (
    DEFAULT_MAX_SAMPLES,
    _canonical_reservoir,
    _weighted_percentile,
)
from repro.obs.trace import QUERY, ROUTER, SERVICE, query_outcome

#: Label sets are canonicalized to sorted (key, value) string pairs.
Labels = Tuple[Tuple[str, str], ...]

#: Default rollup window width (matches the autoscaler's default tick).
DEFAULT_WINDOW_SECONDS = 5.0


def canonical_labels(labels: Mapping[str, Union[str, int, float]]) -> Labels:
    """Sorted, stringified (key, value) pairs — the canonical label form."""
    return tuple(
        (key, str(labels[key])) for key in sorted(labels)
    )


@dataclass(frozen=True)
class RollupCounter:
    """One counter cell: exact event count in one window."""

    metric: str
    labels: Labels
    window: int
    value: int


@dataclass(frozen=True)
class RollupPanel:
    """One value-panel cell: a bounded per-window distribution.

    ``samples``/``weights`` are the deterministic bottom-k reservoir
    (sorted distinct values with observation counts); ``observed``,
    ``minimum`` and ``maximum`` are exact at any volume.
    """

    metric: str
    labels: Labels
    window: int
    observed: int
    minimum: float
    maximum: float
    samples: Tuple[float, ...]
    weights: Tuple[int, ...]
    total: float

    @property
    def kept(self) -> int:
        return sum(self.weights)

    @property
    def mean(self) -> float:
        kept = self.kept
        return self.total / kept if kept else 0.0

    def percentile(self, p: float) -> float:
        return _weighted_percentile(self.samples, self.weights, p)


@dataclass(frozen=True)
class RollupSnapshot:
    """Picklable, mergeable state of a whole rollup store.

    Cells are canonically sorted by ``(metric, labels, window)``, so equal
    observation multisets produce byte-equal snapshots whatever order —
    or worker process — recorded them.
    """

    window_seconds: float
    max_samples: int
    reservoir_seed: int
    counters: Tuple[RollupCounter, ...] = ()
    panels: Tuple[RollupPanel, ...] = ()

    def windows(self) -> Tuple[int, ...]:
        """All window indices with any data, ascending."""
        seen = {cell.window for cell in self.counters}
        seen.update(cell.window for cell in self.panels)
        return tuple(sorted(seen))

    def metrics(self) -> Tuple[str, ...]:
        """All metric names present, sorted."""
        seen = {cell.metric for cell in self.counters}
        seen.update(cell.metric for cell in self.panels)
        return tuple(sorted(seen))

    def counter_cells(self, metric: str) -> Tuple[RollupCounter, ...]:
        return tuple(cell for cell in self.counters if cell.metric == metric)

    def panel_cells(self, metric: str) -> Tuple[RollupPanel, ...]:
        return tuple(cell for cell in self.panels if cell.metric == metric)

    def counter_total(self, metric: str, **labels) -> int:
        """Sum of a counter across all windows (optionally label-filtered)."""
        want = canonical_labels(labels)
        return sum(
            cell.value
            for cell in self.counter_cells(metric)
            if _labels_match(cell.labels, want)
        )

    def counter_by_window(self, metric: str, **labels) -> Dict[int, int]:
        """Window → summed counter value (labels collapsed unless given)."""
        want = canonical_labels(labels)
        series: Dict[int, int] = {}
        for cell in self.counter_cells(metric):
            if _labels_match(cell.labels, want):
                series[cell.window] = series.get(cell.window, 0) + cell.value
        return series

    def panel_by_window(self, metric: str, **labels) -> Dict[int, RollupPanel]:
        """Window → merged panel cell (labels collapsed unless given)."""
        want = canonical_labels(labels)
        grouped: Dict[int, List[RollupPanel]] = {}
        for cell in self.panel_cells(metric):
            if _labels_match(cell.labels, want):
                grouped.setdefault(cell.window, []).append(cell)
        return {
            window: _merge_panel_group(metric, (), window, cells,
                                       self.max_samples, self.reservoir_seed)
            for window, cells in grouped.items()
        }

    def merged_panel(self, metric: str, **labels) -> Optional[RollupPanel]:
        """One panel folding every matching cell across all windows."""
        want = canonical_labels(labels)
        cells = [
            cell for cell in self.panel_cells(metric)
            if _labels_match(cell.labels, want)
        ]
        if not cells:
            return None
        return _merge_panel_group(
            metric, want, -1, cells, self.max_samples, self.reservoir_seed
        )


def _labels_match(have: Labels, want: Labels) -> bool:
    """True when every wanted (key, value) pair appears in ``have``."""
    pairs = dict(have)
    return all(pairs.get(key) == value for key, value in want)


def _merge_panel_group(
    metric: str,
    labels: Labels,
    window: int,
    cells: Sequence[RollupPanel],
    max_samples: int,
    seed: int,
) -> RollupPanel:
    pool: Dict[float, int] = {}
    for cell in cells:
        for value, weight in zip(cell.samples, cell.weights):
            pool[value] = pool.get(value, 0) + weight
    samples, weights, total = _canonical_reservoir(pool, max_samples, seed)
    return RollupPanel(
        metric=metric,
        labels=labels,
        window=window,
        observed=sum(cell.observed for cell in cells),
        minimum=min(cell.minimum for cell in cells),
        maximum=max(cell.maximum for cell in cells),
        samples=samples,
        weights=weights,
        total=total,
    )


def merge_rollup_snapshots(a: RollupSnapshot, b: RollupSnapshot) -> RollupSnapshot:
    """Combine two rollup snapshots (associative, commutative, exact).

    Counters add per cell; panels union their reservoirs value-wise and
    re-apply the shared bottom-k rule; min/max/observed fold exactly.  The
    result is a pure function of the pooled observation multiset, so any
    merge tree over the same shards yields byte-identical snapshots.
    """
    if (
        a.window_seconds != b.window_seconds
        or a.max_samples != b.max_samples
        or a.reservoir_seed != b.reservoir_seed
    ):
        raise TraceError(
            "cannot merge rollup snapshots with mismatched window/reservoir "
            "configuration"
        )
    counters: Dict[Tuple[str, Labels, int], int] = {}
    for snapshot in (a, b):
        for cell in snapshot.counters:
            key = (cell.metric, cell.labels, cell.window)
            counters[key] = counters.get(key, 0) + cell.value
    panels: Dict[Tuple[str, Labels, int], List[RollupPanel]] = {}
    for snapshot in (a, b):
        for cell in snapshot.panels:
            panels.setdefault((cell.metric, cell.labels, cell.window), []).append(cell)
    return RollupSnapshot(
        window_seconds=a.window_seconds,
        max_samples=a.max_samples,
        reservoir_seed=a.reservoir_seed,
        counters=tuple(
            RollupCounter(metric=metric, labels=labels, window=window,
                          value=counters[(metric, labels, window)])
            for metric, labels, window in sorted(counters)
        ),
        panels=tuple(
            _merge_panel_group(
                metric, labels, window,
                panels[(metric, labels, window)],
                a.max_samples, a.reservoir_seed,
            )
            for metric, labels, window in sorted(panels)
        ),
    )


class RollupStore:
    """Accumulates windowed counters and value panels over virtual time.

    ``window_seconds`` fixes the bucket width; a timestamp ``t`` (virtual
    seconds, or a stream ordinal when projecting span exports) lands in
    window ``floor(t / window_seconds)``.  Not thread-safe by design: the
    emitters (replay driver, parent-side fleet recording) are all
    single-threaded folds, and cross-process aggregation goes through
    snapshot/merge like the metrics registry.
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        reservoir_seed: int = 0,
    ):
        if window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        if max_samples < 1:
            raise ConfigurationError("max_samples must be >= 1")
        self.window_seconds = float(window_seconds)
        self.max_samples = max_samples
        self.reservoir_seed = reservoir_seed
        self._counters: Dict[Tuple[str, Labels, int], int] = {}
        # Panel accumulator: value→count pool plus exact observed/min/max.
        self._panels: Dict[
            Tuple[str, Labels, int], Tuple[Dict[float, int], List]
        ] = {}

    def window_of(self, t: float) -> int:
        """The window index a virtual timestamp falls in."""
        if t < 0:
            raise ConfigurationError("virtual time must be >= 0")
        return int(t // self.window_seconds)

    def inc(self, metric: str, t: float, amount: int = 1, **labels) -> None:
        """Add ``amount`` events to a counter cell at virtual time ``t``."""
        if amount < 0:
            raise ConfigurationError("rollup counters only go up")
        key = (metric, canonical_labels(labels), self.window_of(t))
        self._counters[key] = self._counters.get(key, 0) + amount

    def observe(self, metric: str, t: float, value: float, **labels) -> None:
        """Record one value into a panel cell at virtual time ``t``."""
        value = float(value)
        key = (metric, canonical_labels(labels), self.window_of(t))
        entry = self._panels.get(key)
        if entry is None:
            # stats = [observed, minimum, maximum]
            entry = ({}, [0, value, value])
            self._panels[key] = entry
        pool, stats = entry
        pool[value] = pool.get(value, 0) + 1
        stats[0] += 1
        if value < stats[1]:
            stats[1] = value
        if value > stats[2]:
            stats[2] = value

    def snapshot(self) -> RollupSnapshot:
        """The canonical picklable state (sorted cells, truncated pools)."""
        counters = tuple(
            RollupCounter(metric=metric, labels=labels, window=window,
                          value=self._counters[(metric, labels, window)])
            for metric, labels, window in sorted(self._counters)
        )
        panels = []
        for metric, labels, window in sorted(self._panels):
            pool, stats = self._panels[(metric, labels, window)]
            samples, weights, total = _canonical_reservoir(
                dict(pool), self.max_samples, self.reservoir_seed
            )
            panels.append(
                RollupPanel(
                    metric=metric, labels=labels, window=window,
                    observed=stats[0], minimum=stats[1], maximum=stats[2],
                    samples=samples, weights=weights, total=total,
                )
            )
        return RollupSnapshot(
            window_seconds=self.window_seconds,
            max_samples=self.max_samples,
            reservoir_seed=self.reservoir_seed,
            counters=counters,
            panels=tuple(panels),
        )

    def merge(self, snapshot: RollupSnapshot) -> None:
        """Fold another store's snapshot in (worker → parent direction)."""
        if (
            snapshot.window_seconds != self.window_seconds
            or snapshot.max_samples != self.max_samples
            or snapshot.reservoir_seed != self.reservoir_seed
        ):
            raise TraceError(
                "cannot merge a rollup snapshot with mismatched "
                "window/reservoir configuration"
            )
        for cell in snapshot.counters:
            key = (cell.metric, cell.labels, cell.window)
            self._counters[key] = self._counters.get(key, 0) + cell.value
        for cell in snapshot.panels:
            key = (cell.metric, cell.labels, cell.window)
            entry = self._panels.get(key)
            if entry is None:
                entry = ({}, [0, cell.minimum, cell.maximum])
                self._panels[key] = entry
            pool, stats = entry
            for value, weight in zip(cell.samples, cell.weights):
                pool[value] = pool.get(value, 0) + weight
            stats[0] += cell.observed
            stats[1] = min(stats[1], cell.minimum)
            stats[2] = max(stats[2], cell.maximum)


# -- span-export projection ---------------------------------------------------------

#: Rollup metric names emitted by the projections below and by the cluster
#: emitters (replay driver / live fleet).
QUERIES_METRIC = "serve.queries"
ERRORS_METRIC = "serve.errors"
ARRIVALS_METRIC = "serve.arrivals"
REJECTED_METRIC = "serve.router.rejected"
ASSIGNMENTS_METRIC = "serve.router.assignments"
DEPTH_METRIC = "serve.router.queue_depth"
ROUTER_WAIT_METRIC = "serve.router.wait_seconds"
FANOUT_METRIC = "serve.shard.fanout"
SHARD_FAILURES_METRIC = "serve.shard.failures"
STAGE_VIRTUAL_METRIC = "serve.stage.virtual_seconds"
BREAKER_OPEN_METRIC = "serve.breaker.open"
E2E_METRIC = "serve.e2e.seconds"
WAIT_METRIC = "serve.wait.seconds"
SERVICE_METRIC = "serve.service.seconds"
TTFP_METRIC = "serve.ttfp.seconds"
REPLICAS_METRIC = "serve.autoscaler.replicas"
SCALE_ACTIONS_METRIC = "serve.autoscaler.actions"
ENERGY_METRIC = "serve.energy.microjoules"


def rollups_from_spans(
    spans: Iterable,
    window: float = 16.0,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    reservoir_seed: int = 0,
) -> RollupSnapshot:
    """Project a span forest onto windowed rollups, deterministically.

    The virtual clock is the **stream ordinal** (window width ``window``
    is therefore "queries per window" here), and only seed-deterministic
    span fields are read — status, error codes, label attributes, and the
    executor's ``virtual_seconds`` cost model — never measured wall times.
    The same chaos run therefore projects to byte-identical rollups on
    the serial, thread, and process backends.

    Emitted series: ``serve.queries{status}``, ``serve.errors{code}``,
    ``serve.router.assignments{replica}`` / ``.queue_depth{replica}`` /
    ``.rejected``, ``serve.shard.fanout``, ``serve.breaker.open``, and
    ``serve.stage.virtual_seconds{stage}`` plus per-query
    ``serve.e2e.seconds`` from the root's virtual cost.
    """
    store = RollupStore(
        window_seconds=window, max_samples=max_samples,
        reservoir_seed=reservoir_seed,
    )
    for span in spans:
        t = float(span.ordinal)
        if span.kind == QUERY:
            store.inc(QUERIES_METRIC, t, status=query_outcome(span))
            # The root's inclusive injected virtual cost; a fault-free
            # trace costs 0.0, keeping the panel dense over all queries.
            virtual = span.attributes.get("virtual_seconds", 0.0)
            store.observe(E2E_METRIC, t, float(virtual))
        elif span.kind == ROUTER:
            replica = span.attributes.get("replica")
            if replica is not None:
                store.inc(ASSIGNMENTS_METRIC, t, replica=replica)
                depth = span.attributes.get("queue_depth")
                if depth is not None:
                    store.observe(DEPTH_METRIC, t, float(depth), replica=replica)
            if span.status == "error":
                store.inc(REJECTED_METRIC, t)
        elif span.kind == SERVICE:
            virtual = span.attributes.get("virtual_seconds")
            if virtual is not None and span.service:
                store.observe(
                    STAGE_VIRTUAL_METRIC, t, float(virtual), stage=span.service
                )
        if span.status == "error" and span.error_code:
            store.inc(ERRORS_METRIC, t, code=span.error_code)
        if span.attributes.get("breaker") == "open":
            store.inc(BREAKER_OPEN_METRIC, t)
        width = span.attributes.get("shard.fanout")
        if width is not None:
            store.observe(FANOUT_METRIC, t, float(width))
        failures = span.attributes.get("shard.failed")
        if failures:
            store.inc(SHARD_FAILURES_METRIC, t, amount=int(failures))
    return store.snapshot()
