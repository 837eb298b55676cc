"""The telemetry store: windowed counters and distributions over virtual time.

At fleet scale the end-of-run aggregate is the wrong unit of observability
— the tail-at-scale literature's signals (burning error budgets, windowed
p99s, a replica draining behind the others) are all *time-local*.  A
:class:`RollupStore` is the one registry of named counters and
distributions in the repo: it buckets every metric into fixed-width
windows of **virtual time** (replay seconds, or stream ordinals for live
runs and span exports — never wall clocks), keyed by metric × label set,
so the executor, the gateway, the live fleet and the replay driver all
emit per-window series that fold back to one number per run on demand
(:meth:`RollupSnapshot.merged_panel`, :meth:`RollupSnapshot.counter_total`).

Two cell kinds:

- **counters** — exact integer sums per ``(metric, labels, window)``;
- **value panels** — per-window distributions (latency, queue depth,
  fan-out ...) carried as the deterministic bottom-k ``(value, weight)``
  reservoir of :mod:`repro.obs.metrics`, plus exact
  ``observed``/``min``/``max``.

:meth:`RollupStore.snapshot` is picklable and canonically sorted, and
:func:`merge_rollup_snapshots` is associative, commutative, and
fsum-exact — counters add, reservoirs union value-wise and re-apply the
bottom-k rule (:func:`_merge_cells`, the only place two reservoirs meet),
min/max fold — so shards of one stream merge into one view in any order,
byte-identically (the property suite splits streams across window
boundaries and checks exactly this).

**Two instances, one type.**  What a store holds depends on who feeds it:
``metrics=`` stores (``PlanExecutor``, ``Cluster``, :func:`record_response`,
``metrics_from_spans``) hold *measured* seconds; ``rollups=`` stores
(:func:`rollups_from_spans`, ``Cluster.rollups``,
``ReplayResult.rollups()``) hold only seed-deterministic values and are
byte-identical across backends.

**What is complete where.**  The process backend forks, so an observation
made *inside* ``PlanExecutor.run`` (stage hand-off waits, router
wait/depth) lands in the worker's copy of the store and is complete on
the ``serial`` and ``thread`` backends only.  Everything recorded
parent-side from the returned responses — ``run_all``, ``Cluster.run_all``
and the gateway, through :func:`record_response` and the span projection
— is complete on every backend.
"""

from __future__ import annotations

import threading
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

#: One cell's address: ``(metric, labels, window)``.
CellKey = Tuple[str, Labels, int]

#: Default rollup window width (matches the autoscaler's default tick).
DEFAULT_WINDOW_SECONDS = 5.0


def canonical_labels(labels: Mapping[str, Union[str, int, float]]) -> Labels:
    """Sorted, stringified (key, value) pairs — the canonical label form."""
    if not labels:  # most observations carry none; this is the recorders' hot path
        return ()
    return tuple(
        (key, str(labels[key])) for key in sorted(labels)
    )


def format_series(metric: str, labels: Labels) -> str:
    """``metric{key=value,...}`` — how reports name one labelled series."""
    if not labels:
        return metric
    return metric + "{" + ",".join(f"{key}={value}" for key, value in labels) + "}"


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
    ``minimum`` and ``maximum`` are exact at any volume.  ``observed``
    exceeds :attr:`kept` only when the reservoir has truncated (see
    :mod:`repro.obs.metrics` for the error bound that applies then).
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
    or worker — recorded them.
    """

    window_seconds: float
    max_samples: int
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

    def panel_series(self) -> Tuple[Tuple[str, Labels], ...]:
        """Every distinct ``(metric, labels)`` with a panel cell, sorted."""
        return tuple(sorted({(cell.metric, cell.labels) for cell in self.panels}))

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
            window: _merge_cells((metric, (), window), cells, self.max_samples)
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
        return _merge_cells((metric, want, -1), cells, self.max_samples)


def _labels_match(have: Labels, want: Labels) -> bool:
    """True when every wanted (key, value) pair appears in ``have``."""
    pairs = dict(have)
    return all(pairs.get(key) == value for key, value in want)


def _merge_cells(
    key: CellKey, cells: Sequence[RollupPanel], max_samples: int
) -> RollupPanel:
    """Fold panel cells into one at ``key`` — the only union of reservoirs.

    Pools union value-wise (weights add) and re-apply the bottom-k rule;
    ``observed``/``minimum``/``maximum`` fold exactly.  A pure function of
    the pooled observation multiset, whatever the grouping.
    """
    pool: Dict[float, int] = {}
    for cell in cells:
        for value, weight in zip(cell.samples, cell.weights):
            pool[value] = pool.get(value, 0) + weight
    samples, weights, total = _canonical_reservoir(pool, max_samples)
    metric, labels, window = key
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

    Counters add per cell; panels go through :func:`_merge_cells`.  The
    result is a pure function of the pooled observation multiset, so any
    merge tree over the same shards yields byte-identical snapshots.
    """
    merged = RollupStore(a.window_seconds, a.max_samples)
    merged.merge(a)
    merged.merge(b)
    return merged.snapshot()


class RollupStore:
    """Accumulates windowed counters and value panels over virtual time.

    ``window_seconds`` fixes the bucket width; a timestamp ``t`` (virtual
    seconds, or a stream ordinal for live runs and span exports) lands in
    window ``floor(t / window_seconds)``.  A cell keeps every distinct
    value of its window and is truncated to ``max_samples`` when read
    (:meth:`snapshot`) or merged.  Thread-safe: one lock around
    :meth:`inc` / :meth:`observe` / :meth:`merge` / :meth:`snapshot`,
    because ``run_all(backend="thread")`` workers observe into the
    executor's store concurrently.
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ):
        if window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        if max_samples < 1:
            raise ConfigurationError("max_samples must be >= 1")
        self.window_seconds = float(window_seconds)
        self.max_samples = max_samples
        self._lock = threading.Lock()
        self._counters: Dict[CellKey, int] = {}
        # Panel accumulator: [value→count pool, observed, minimum, maximum].
        self._panels: Dict[CellKey, list] = {}

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
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def observe(self, metric: str, t: float, value: float, **labels) -> None:
        """Record one value into a panel cell at virtual time ``t``."""
        value = float(value)
        key = (metric, canonical_labels(labels), self.window_of(t))
        with self._lock:
            entry = self._panels.get(key)
            if entry is None:
                self._panels[key] = [{value: 1}, 1, value, value]
                return
            pool = entry[0]
            pool[value] = pool.get(value, 0) + 1
            entry[1] += 1
            if value < entry[2]:
                entry[2] = value
            elif value > entry[3]:
                entry[3] = value

    def _panel(self, key: CellKey) -> RollupPanel:
        """The canonical (truncated) cell at ``key``; caller holds the lock."""
        pool, observed, minimum, maximum = self._panels[key]
        samples, weights, total = _canonical_reservoir(pool, self.max_samples)
        metric, labels, window = key
        return RollupPanel(
            metric=metric, labels=labels, window=window,
            observed=observed, minimum=minimum, maximum=maximum,
            samples=samples, weights=weights, total=total,
        )

    def snapshot(self) -> RollupSnapshot:
        """The canonical picklable state (sorted cells, truncated pools)."""
        with self._lock:
            counters = tuple(
                RollupCounter(*key, self._counters[key])
                for key in sorted(self._counters)
            )
            panels = tuple(self._panel(key) for key in sorted(self._panels))
        return RollupSnapshot(
            window_seconds=self.window_seconds,
            max_samples=self.max_samples,
            counters=counters,
            panels=panels,
        )

    def merge(self, snapshot: RollupSnapshot) -> None:
        """Fold another store's snapshot in (equal window width and cap only)."""
        if (
            snapshot.window_seconds != self.window_seconds
            or snapshot.max_samples != self.max_samples
        ):
            raise TraceError(
                "cannot merge rollups with mismatched window/reservoir "
                "configuration"
            )
        with self._lock:
            for cell in snapshot.counters:
                key = (cell.metric, cell.labels, cell.window)
                self._counters[key] = self._counters.get(key, 0) + cell.value
            for cell in snapshot.panels:
                key = (cell.metric, cell.labels, cell.window)
                cells = [self._panel(key), cell] if key in self._panels else [cell]
                merged = _merge_cells(key, cells, self.max_samples)
                self._panels[key] = [
                    dict(zip(merged.samples, merged.weights)),
                    merged.observed, merged.minimum, merged.maximum,
                ]


# -- metric vocabulary --------------------------------------------------------------

#: Metric names every emitter writes under (serving recorders, the span
#: projection, the replay driver, the live fleet); labels in braces.
QUERIES_METRIC = "serve.queries"                    # {status}
PARTIALS_METRIC = "serve.partials"
ERRORS_METRIC = "serve.errors"                      # {code}
ARRIVALS_METRIC = "serve.arrivals"
REJECTED_METRIC = "serve.router.rejected"
ASSIGNMENTS_METRIC = "serve.router.assignments"     # {replica}
DEPTH_METRIC = "serve.router.queue_depth"           # {replica}
ROUTER_WAIT_METRIC = "serve.router.wait_seconds"
FANOUT_METRIC = "serve.shard.fanout"
SHARD_FAILURES_METRIC = "serve.shard.failures"
STAGE_VIRTUAL_METRIC = "serve.stage.virtual_seconds"  # {stage}
BREAKER_OPEN_METRIC = "serve.breaker.open"
E2E_METRIC = "serve.e2e.seconds"
WAIT_METRIC = "serve.wait.seconds"                  # {stage}
SERVICE_METRIC = "serve.service.seconds"            # {stage}
TTFP_METRIC = "serve.ttfp.seconds"
REPLICAS_METRIC = "serve.autoscaler.replicas"
SCALE_ACTIONS_METRIC = "serve.autoscaler.actions"
ENERGY_METRIC = "serve.energy.microjoules"


# -- response recording -------------------------------------------------------------


def response_outcome(response) -> str:
    """``"ok"`` / ``"degraded"`` / ``"failed"``; a failed response is not
    also degraded."""
    if getattr(response, "failed", False):
        return "failed"
    if getattr(response, "degraded", False):
        return "degraded"
    return "ok"


def record_response(store: RollupStore, response, ordinal: int) -> None:
    """Record one served query at its stream ordinal: measured end-to-end
    and per-stage seconds, and the ok/degraded/failed outcome.

    Duck-typed over :class:`~repro.core.query.SiriusResponse`, so the obs
    layer needs no import of the core package.
    """
    t = float(ordinal)
    store.observe(E2E_METRIC, t, max(response.wall_seconds, 0.0))
    for label, seconds in response.service_seconds.items():
        store.observe(SERVICE_METRIC, t, max(seconds, 0.0), stage=label)
    store.inc(QUERIES_METRIC, t, status=response_outcome(response))


def record_responses(store: RollupStore, responses: Sequence) -> None:
    """Record a whole response stream, ordinals in stream order."""
    for ordinal, response in enumerate(responses):
        record_response(store, response, ordinal)


# -- span-export projection ---------------------------------------------------------


def rollups_from_spans(
    spans: Iterable,
    window: float = 16.0,
    max_samples: int = DEFAULT_MAX_SAMPLES,
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
    store = RollupStore(window_seconds=window, max_samples=max_samples)
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
