"""Property-based tests for the observability layer (hypothesis).

Randomized structural checks the example-based obs suite cannot cover:

- **backend independence**: for random small query sets and trace seeds,
  the deterministic span export (IDs, parentage, attributes — wall times
  stripped) is byte-identical across the serial, thread, and process
  backends.  Span identity must be a pure function of
  ``(trace_seed, ordinal, tree position)``, never of scheduling;
- **merge algebra**: merging one-cell store snapshots is commutative and
  associative down to byte-equal snapshots (counts *and* ``fsum``-exact
  sums), below and above the reservoir cap, so sharded collection order
  can never change a report.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import RollupStore
from repro.obs.timeseries import merge_rollup_snapshots
from repro.serving import PlanExecutor, default_chaos_plan, resilient_executor
from repro.serving.identity import span_fingerprint

from tests.test_obs import FAST_RETRY, make_query, stub_services

#: The process backend forks per level; keep the fleet small and examples few.
BACKENDS = ("serial", "thread", "process")


def deterministic_export(queries, trace_seed, chaos_seed, backend):
    executor = PlanExecutor(stub_services(), trace_seed=trace_seed)
    executor = resilient_executor(
        executor, policies=FAST_RETRY,
        fault_plan=default_chaos_plan(chaos_seed),
    )
    responses = executor.run_all(queries, backend=backend, on_error="degrade")
    return span_fingerprint(responses)


class TestBackendIndependence:
    @settings(max_examples=8, deadline=None)
    @given(
        texts=st.lists(
            st.text(alphabet="abc ", min_size=1, max_size=8),
            min_size=1, max_size=3,
        ),
        with_image=st.booleans(),
        trace_seed=st.integers(min_value=0, max_value=2**31 - 1),
        chaos_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_span_forest_identical_across_backends(
        self, texts, with_image, trace_seed, chaos_seed
    ):
        queries = [make_query(t, with_image=with_image) for t in texts]
        exports = {
            backend: deterministic_export(queries, trace_seed, chaos_seed, backend)
            for backend in BACKENDS
        }
        assert exports["serial"] == exports["thread"] == exports["process"]
        # And the export is a replay-stable function of its inputs.
        assert exports["serial"] == deterministic_export(
            queries, trace_seed, chaos_seed, "serial"
        )


samples = st.lists(
    st.floats(min_value=1e-6, max_value=50.0,
              allow_nan=False, allow_infinity=False),
    max_size=30,
)


#: Small enough that the 30-value strategy truncates: the algebra must
#: hold through the bottom-k rule, not only below the cap.
CAP = 8


def snapshot_of(values, counter=0):
    store = RollupStore(max_samples=CAP)
    for value in values:
        store.observe("h", 0.0, value)
    if counter:
        store.inc("c", 0.0, counter)
    return store.snapshot()


class TestMergeAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(a=samples, b=samples, na=st.integers(0, 9), nb=st.integers(0, 9))
    def test_merge_commutative(self, a, b, na, nb):
        left = merge_rollup_snapshots(snapshot_of(a, na), snapshot_of(b, nb))
        right = merge_rollup_snapshots(snapshot_of(b, nb), snapshot_of(a, na))
        assert left == right
        assert left.counter_total("c") == na + nb

    @settings(max_examples=50, deadline=None)
    @given(a=samples, b=samples, c=samples)
    def test_merge_associative(self, a, b, c):
        sa, sb, sc = snapshot_of(a), snapshot_of(b), snapshot_of(c)
        assert merge_rollup_snapshots(merge_rollup_snapshots(sa, sb), sc) == merge_rollup_snapshots(
            sa, merge_rollup_snapshots(sb, sc)
        )

    @settings(max_examples=50, deadline=None)
    @given(values=samples)
    def test_merge_with_empty_is_identity(self, values):
        snapshot = snapshot_of(values)
        assert merge_rollup_snapshots(snapshot, snapshot_of([])) == snapshot

    @settings(max_examples=50, deadline=None)
    @given(a=samples, b=samples)
    def test_merged_percentiles_match_pooled(self, a, b):
        merged = merge_rollup_snapshots(snapshot_of(a), snapshot_of(b))
        pooled = snapshot_of(a + b)
        assert merged == pooled
        if a or b:
            for p in (50, 95, 99):
                assert merged.merged_panel("h").percentile(
                    p
                ) == pooled.merged_panel("h").percentile(p)
