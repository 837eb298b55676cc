"""The telemetry store: windowed rollups on a bounded value reservoir.

The telemetry plane's core contract is that aggregation is a *pure
function of the observation multiset*: how values spread over windows can
never change a folded panel's bytes.  These tests pin that down:

- a cell's reservoir keeps exact percentiles below its cap, bounds
  retention above it, and folds across windows to the pooled stream's
  cell either way;
- span-projected rollups are a deterministic function of the forest.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import DEFAULT_MAX_SAMPLES
from repro.obs.timeseries import (
    ARRIVALS_METRIC,
    E2E_METRIC,
    QUERIES_METRIC,
    RollupStore,
    canonical_labels,
    rollups_from_spans,
)


# ---------------------------------------------------------------------------
# Bounded value reservoir (one cell of the store)
# ---------------------------------------------------------------------------


def one_cell(values, max_samples):
    """Snapshot of a store holding ``values`` in a single panel cell."""
    store = RollupStore()
    store.max_samples = max_samples
    for v in values:
        store.observe("t.cell", 0.0, v)
    return store.snapshot()


def cell(snapshot):
    (panel,) = snapshot.panels
    return panel


def folded(parts, max_samples):
    """The panel folding a store that holds ``parts[i]`` in window ``i``."""
    store = RollupStore()
    store.max_samples = max_samples
    for window, values in enumerate(parts):
        for v in values:
            store.observe("t.cell", window * store.window_seconds, v)
    return store.snapshot().merged_panel("t.cell")


class TestHistogramReservoir:
    def test_exact_below_cap(self):
        values = [0.1 * i for i in range(50)]
        snap = cell(one_cell(values, max_samples=64))
        assert snap.observed == snap.kept == 50
        assert snap.samples == tuple(sorted(values))
        # exact: matches the unbounded definitions
        assert snap.percentile(50) == (values[24] + values[25]) / 2
        assert math.isclose(snap.mean, math.fsum(values) / 50)

    def test_retention_bounded_above_cap(self):
        rng = random.Random(7)
        values = [rng.expovariate(1.0) for _ in range(10_000)]
        snap = cell(one_cell(values, max_samples=32))
        assert len(snap.samples) == 32
        assert snap.kept < snap.observed
        # count/min/max stay exact regardless of eviction
        assert snap.observed == 10_000
        assert (snap.minimum, snap.maximum) == (min(values), max(values))

    def test_duplicates_do_not_consume_capacity(self):
        snap = cell(one_cell([3.0] * 1_000 + [1.0, 2.0, 4.0], max_samples=8))
        assert snap.kept == snap.observed == 1_003  # only 4 distinct values
        assert snap.percentile(50) == 3.0   # weights carry the duplicates

    def test_merge_equals_pooled_stream(self):
        rng = random.Random(11)
        stream = [round(rng.expovariate(1.0), 3) for _ in range(5_000)]
        merged = folded([stream[i::4] for i in range(4)], max_samples=64)
        assert merged == folded([stream], max_samples=64)
        assert merged.kept < merged.observed == 5_000

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200,
        ),
        split=st.integers(min_value=0, max_value=200),
        cap=st.sampled_from([4, 16, DEFAULT_MAX_SAMPLES]),
    )
    def test_merge_associative_and_commutative(self, values, split, cap):
        split = min(split, len(values))
        parts = [values[:split], values[split:]]
        assert folded(parts, cap) == folded(parts[::-1], cap)
        assert folded(parts, cap) == folded([values], cap)


# ---------------------------------------------------------------------------
# Rollup store
# ---------------------------------------------------------------------------


class TestRollupStore:
    def test_windowing_on_virtual_time(self):
        store = RollupStore(window_seconds=5.0)
        for t in (0.0, 4.999, 5.0, 12.5):
            store.inc(ARRIVALS_METRIC, t)
        snap = store.snapshot()
        assert snap.windows() == (0, 1, 2)
        assert snap.counter_by_window(ARRIVALS_METRIC) == {0: 2, 1: 1, 2: 1}
        assert snap.counter_total(ARRIVALS_METRIC) == 4

    def test_labels_are_canonical(self):
        store = RollupStore()
        store.inc(QUERIES_METRIC, 0.0, status="ok")
        store.inc(QUERIES_METRIC, 0.0, status="ok")
        store.inc(QUERIES_METRIC, 0.0, status="failed")
        snap = store.snapshot()
        assert snap.counter_total(QUERIES_METRIC, status="ok") == 2
        assert snap.counter_total(QUERIES_METRIC, status="failed") == 1
        assert snap.counter_total(QUERIES_METRIC) == 3
        assert canonical_labels({"b": 1, "a": 2}) == (("a", "2"), ("b", "1"))

    def test_panel_stats_exact(self):
        store = RollupStore(window_seconds=10.0)
        for v in (1.0, 2.0, 3.0, 4.0):
            store.observe(E2E_METRIC, 0.0, v)
        panel = store.snapshot().merged_panel(E2E_METRIC)
        assert panel.observed == 4
        assert (panel.minimum, panel.maximum) == (1.0, 4.0)
        assert panel.mean == 2.5
        assert panel.percentile(50.0) == 2.5


# ---------------------------------------------------------------------------
# Span projection
# ---------------------------------------------------------------------------


class TestRollupsFromSpans:
    def _spans(self, chaos_seed=3):
        from repro.obs.trace import collect_spans
        from repro.serving import (
            PlanExecutor,
            default_chaos_plan,
            resilient_executor,
        )

        from tests.test_obs import FAST_RETRY, make_query, stub_services

        executor = resilient_executor(
            PlanExecutor(stub_services(), trace_seed=5),
            policies=FAST_RETRY,
            fault_plan=default_chaos_plan(chaos_seed),
        )
        queries = [make_query(f"query {i}") for i in range(10)]
        return collect_spans(executor.run_all(queries, on_error="degrade"))

    def test_projection_is_deterministic(self):
        spans = self._spans()
        assert rollups_from_spans(spans, 16.0) == rollups_from_spans(spans, 16.0)
        assert rollups_from_spans(spans, 16.0) == rollups_from_spans(self._spans(), 16.0)

    def test_status_counts_match_roots(self):
        spans = self._spans()
        roots = [s for s in spans if s.parent_id == ""]
        snap = rollups_from_spans(spans, window=16.0)
        total = sum(
            snap.counter_total(QUERIES_METRIC, status=status)
            for status in ("ok", "degraded", "failed")
        )
        assert total == len(roots)
        panel = snap.merged_panel(E2E_METRIC)
        assert panel is not None and panel.observed == len(roots)
