"""Property-based tests for the observability layer (hypothesis).

Randomized structural checks the example-based obs suite cannot cover:

- **backend independence**: for random small query sets and trace seeds,
  the deterministic span export (IDs, parentage, attributes — wall times
  stripped) is byte-identical in line and on the forked fan-out.  Span
  identity must be a pure function of
  ``(trace_seed, ordinal, tree position)``, never of scheduling;
- **fold algebra**: folding a panel across windows is order-free down to
  byte-equal panels (counts *and* ``fsum``-exact sums) and equals the
  pooled stream's, below and above the reservoir cap, so how values
  spread over windows can never change a report.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import RollupStore
from repro.serving import PlanExecutor, default_chaos_plan, resilient_executor
from repro.serving.identity import span_fingerprint

from tests.test_obs import FAST_RETRY, make_query, stub_services

#: In line, then on forked workers (which fork per example; keep the fleet
#: small and examples few).
WORKER_COUNTS = (1, 2)


def deterministic_export(queries, trace_seed, chaos_seed, workers):
    executor = PlanExecutor(stub_services(), trace_seed=trace_seed)
    executor = resilient_executor(
        executor, policies=FAST_RETRY,
        fault_plan=default_chaos_plan(chaos_seed),
    )
    responses = executor.run_all(queries, workers=workers, on_error="degrade")
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
            workers: deterministic_export(queries, trace_seed, chaos_seed, workers)
            for workers in WORKER_COUNTS
        }
        assert exports[1] == exports[2]
        # And the export is a replay-stable function of its inputs.
        assert exports[1] == deterministic_export(
            queries, trace_seed, chaos_seed, 1
        )


samples = st.lists(
    st.floats(min_value=1e-6, max_value=50.0,
              allow_nan=False, allow_infinity=False),
    max_size=30,
)


#: Small enough that the 30-value strategy truncates: the algebra must
#: hold through the bottom-k rule, not only below the cap.
CAP = 8


def windows_of(*parts, counters=()):
    """A store holding ``parts[i]`` (and ``counters[i]`` events) in window ``i``."""
    store = RollupStore()
    store.max_samples = CAP
    for window, values in enumerate(parts):
        t = window * store.window_seconds
        for value in values:
            store.observe("h", t, value)
        if window < len(counters) and counters[window]:
            store.inc("c", t, counters[window])
    return store.snapshot()


class TestMergeAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(a=samples, b=samples, na=st.integers(0, 9), nb=st.integers(0, 9))
    def test_merge_commutative(self, a, b, na, nb):
        left = windows_of(a, b, counters=(na, nb))
        right = windows_of(b, a, counters=(nb, na))
        assert left.merged_panel("h") == right.merged_panel("h")
        assert left.counter_total("c") == na + nb

    @settings(max_examples=50, deadline=None)
    @given(a=samples, b=samples)
    def test_merged_percentiles_match_pooled(self, a, b):
        merged = windows_of(a, b).merged_panel("h")
        pooled = windows_of(a + b).merged_panel("h")
        assert merged == pooled
        if a or b:
            for p in (50, 95, 99):
                assert merged.percentile(p) == pooled.percentile(p)
