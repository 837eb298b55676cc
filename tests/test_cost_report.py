"""The cost ledger: exact attribution, the golden ledger, and wasted work.

Acceptance checks for the cost & energy observability plane:

- per-stage ledger attributions sum **exactly** (integer microjoules,
  fsum dollars) to per-query and per-trace totals, including on
  hypothesis-generated forests — the energy analogue of the
  critical-path conservation invariant;
- the ledger of a pinned chaos replay equals a committed golden file
  field for field, and the ledger text of the same chaos run is
  byte-identical in line and on the forked fan-out;
- the fleet report's cost panel prices the autoscaler's provisioned
  trajectory;
- wasted work (retried and degraded-then-discarded attempts) partitions
  out of served counters exactly, and ``repro trace-report`` renders
  that one partition.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import collect_spans, read_jsonl, to_jsonl
from repro.obs.cost import (
    CATEGORIES,
    COMPUTE,
    DEGRADED,
    RETRIES,
    ROUTER_WAIT,
    TAX_CATEGORIES,
    fleet_cost_panel,
    format_ledger,
    ledger_from_replay,
    ledger_from_spans,
)
from repro.obs.counters import aggregate_counters, wasted_span_ids
from repro.obs.pricing import electricity_dollars, energy_microjoules
from repro.obs.trace import QUERY, ROUTER, SERVICE, Span
from repro.platforms.spec import CMP

from tests.test_fleet_report import chaos_spans, WORKER_COUNTS

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "fixtures" / "cost" / "cost-report.json"

#: Per-query entries the golden file records (its totals cover all 600).
GOLDEN_QUERIES = 12


def pinned_replay_ledger():
    """The pinned chaos-flavored replay behind the committed golden file."""
    from repro.datacenter.arrivals import PoissonProcess
    from repro.datacenter.simulation import exponential_sampler
    from repro.serving.cluster import AutoscalerPolicy, replay_cluster
    from repro.serving.cluster.router import AdmissionControl

    result = replay_cluster(
        PoissonProcess(rate=30.0),
        exponential_sampler(0.05, seed=18),
        600,
        policy="least-loaded",
        n_replicas=2,
        seed=17,
        admission=AdmissionControl(max_depth=12, seed=17),
        autoscaler=AutoscalerPolicy(slo_p99=0.4, max_replicas=5),
        tick_seconds=2.0,
    )
    return ledger_from_replay(result)


def total_fields(total):
    """A :class:`CategoryTotal` as the golden file records it."""
    return {
        "seconds": total.seconds,
        "microjoules": total.microjoules,
        "dollars": total.dollars,
        "events": total.events,
    }


def query_fields(query):
    """A :class:`QueryCost` and its entries as the golden file records them."""
    return {
        "trace_id": query.trace_id,
        "ordinal": query.ordinal,
        "outcome": query.outcome,
        "microjoules": query.microjoules,
        "dollars": math.fsum(entry.dollars for entry in query.entries),
        "entries": [
            {
                "stage": entry.stage,
                "category": entry.category,
                "seconds": entry.seconds,
                "microjoules": entry.microjoules,
                "dollars": entry.dollars,
                "events": entry.events,
                "counters": entry.counters.as_dict(),
            }
            for entry in query.entries
        ],
    }


@pytest.fixture(scope="module")
def pipeline_chaos_spans(sirius_pipeline, input_set):
    """The span forest of ``serve-bench --chaos 42 --queries 8 --trace``.

    The real pipeline records work counters, and under the seed-42 plan
    two queries degrade after QA did work that is then thrown away.
    """
    from repro.core import QueryType
    from repro.serving import (
        default_chaos_plan,
        default_policies,
        resilient_executor,
    )

    queries = input_set.by_type(QueryType.VOICE_QUERY)[:8]
    executor = resilient_executor(
        sirius_pipeline.serving, default_policies(seed=42),
        default_chaos_plan(42),
    )
    executor.trace_seed = 42
    executor.warmup()
    return collect_spans(executor.run_all(queries, on_error="degrade"))


def synthetic_forest():
    """A hand-built span forest with known counters per paper stage.

    Three queries; each runs ASR / QA / IMM service spans carrying
    counter work at paper-ish intensities, plus a router span with
    virtual queueing — enough structure to exercise per-stage attribution
    without the full pipeline.
    """
    stage_work = {
        "ASR": (90_000_000, 60_000_000),    # gmm-like, f/b = 1.5
        "QA": (10_000_000, 20_000_000),     # string-hostile, f/b = 0.5
        "IMM": (120_000_000, 20_000_000),   # fe/fd-like, f/b = 6.0
    }
    spans = []
    for ordinal in range(3):
        trace = f"t{ordinal:02d}"
        root = Span(
            trace_id=trace, span_id=f"{trace}-root", parent_id="",
            name="query", kind=QUERY, ordinal=ordinal,
        )
        spans.append(root)
        spans.append(Span(
            trace_id=trace, span_id=f"{trace}-router",
            parent_id=root.span_id, name="router", kind=ROUTER,
            service="ROUTER", ordinal=ordinal,
            attributes={"virtual_seconds": 0.25},
        ))
        for stage, (flops, mem) in stage_work.items():
            spans.append(Span(
                trace_id=trace, span_id=f"{trace}-{stage}",
                parent_id=root.span_id, name=stage.lower(), kind=SERVICE,
                service=stage, ordinal=ordinal,
                attributes={
                    "flops": flops * (ordinal + 1),
                    "bytes": mem * (ordinal + 1),
                    "invocations": 1,
                },
            ))
    return spans


# ---------------------------------------------------------------------------
# Exactness: attributions sum to totals
# ---------------------------------------------------------------------------


class TestExactness:
    def assert_conserved(self, ledger):
        for query in ledger.queries:
            assert query.microjoules == sum(
                entry.microjoules for entry in query.entries
            )
        assert ledger.total_microjoules == sum(
            query.microjoules for query in ledger.queries
        )
        totals = ledger.category_totals()
        assert ledger.total_microjoules == sum(
            totals[category].microjoules for category in CATEGORIES
        )
        stage_uj = sum(
            total.microjoules for total in ledger.stage_totals().values()
        )
        assert stage_uj == ledger.total_microjoules

    def test_chaos_spans_conserve_energy(self):
        self.assert_conserved(ledger_from_spans(chaos_spans(1)))

    def test_synthetic_forest_conserves_energy(self):
        self.assert_conserved(ledger_from_spans(synthetic_forest()))

    def test_replay_ledger_conserves_energy(self):
        self.assert_conserved(pinned_replay_ledger())

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["ASR", "QA", "IMM", "CLASSIFY"]),
                st.integers(min_value=0, max_value=10**9),   # flops
                st.integers(min_value=0, max_value=10**8),   # bytes
                st.floats(min_value=0.0, max_value=5.0),     # virtual stall
                st.booleans(),                               # service errored
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_property_attributions_sum_exactly(self, stages):
        spans = []
        for ordinal, (stage, flops, mem, stall, errored) in enumerate(stages):
            trace = f"h{ordinal:03d}"
            root = Span(
                trace_id=trace, span_id=f"{trace}-r", parent_id="",
                name="query", kind=QUERY, ordinal=ordinal,
            )
            spans.append(root)
            spans.append(Span(
                trace_id=trace, span_id=f"{trace}-s", parent_id=root.span_id,
                name=stage.lower(), kind=SERVICE, service=stage,
                ordinal=ordinal,
                status="error" if errored else "ok",
                attributes={
                    "flops": flops, "bytes": mem, "invocations": 1,
                    "virtual_seconds": stall,
                },
            ))
        ledger = ledger_from_spans(spans)
        # integer microjoules: per-stage sums are *exactly* the totals
        assert ledger.total_microjoules == sum(
            total.microjoules for total in ledger.stage_totals().values()
        )
        for query in ledger.queries:
            assert query.microjoules == sum(
                entry.microjoules for entry in query.entries
            )
        # and fsum over the dollar entries is the ledger's dollar total
        assert ledger.total_dollars == math.fsum(
            entry.dollars
            for query in ledger.queries
            for entry in query.entries
        )


# ---------------------------------------------------------------------------
# Byte identity: worker counts and the golden file
# ---------------------------------------------------------------------------


def deterministic_export(spans):
    """The timing-stripped export of ``spans``, read back."""
    return read_jsonl(to_jsonl(spans, timing=False).splitlines())


def without_router(ledger):
    return {key: total for key, total in ledger.stage_totals().items() if key[0] != "ROUTER"}


class TestByteIdentity:
    def test_ledger_identical_across_backends_under_chaos(self):
        # The measured router waits of a live run differ run to run; its
        # deterministic export carries none of them.
        rendered = {
            workers: format_ledger(ledger_from_spans(deterministic_export(chaos_spans(workers))))
            for workers in WORKER_COUNTS
        }
        assert rendered[1] == rendered[2]

    def test_ledger_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())
        ledger = pinned_replay_ledger()
        assert golden["source"] == ledger.source
        assert golden["platform"] == CMP
        assert golden["n_queries"] == len(ledger.queries)
        assert golden["total_microjoules"] == ledger.total_microjoules
        assert golden["total_dollars"] == ledger.total_dollars
        assert golden["electricity_dollars"] == electricity_dollars(
            ledger.total_microjoules
        )
        assert golden["tax_microjoules"] == ledger.tax_microjoules()
        assert golden["tax_dollars"] == ledger.tax_dollars()
        assert golden["categories"] == {
            category: total_fields(total)
            for category, total in ledger.category_totals().items()
        }
        stages = {}
        for (stage, category), total in ledger.stage_totals().items():
            stages.setdefault(stage, {})[category] = total_fields(total)
        assert golden["stages"] == stages
        assert golden["queries"] == [
            query_fields(query) for query in ledger.queries[:GOLDEN_QUERIES]
        ]

    def test_report_is_replay_stable(self):
        first = pinned_replay_ledger()
        second = pinned_replay_ledger()
        assert first == second
        assert format_ledger(first) == format_ledger(second)

    def test_jsonl_roundtrip_is_lossless(self):
        spans = chaos_spans(1)
        replayed = read_jsonl(to_jsonl(spans).splitlines())
        assert ledger_from_spans(spans) == ledger_from_spans(replayed)
        # Stripping the timing drops the router's measured wait and nothing else.
        live, stripped = ledger_from_spans(spans), ledger_from_spans(deterministic_export(spans))
        assert without_router(live) == without_router(stripped)
        assert live.category_totals()[ROUTER_WAIT].seconds > 0
        assert stripped.category_totals()[ROUTER_WAIT].seconds == 0


class TestLiveRouterWait:
    """A live fleet's router spans carry a measured wait and no virtual seconds."""

    def test_ledger_router_wait_equals_the_critical_path_router_wait(
        self, sirius_pipeline, input_set, tmp_path
    ):
        from repro.obs import write_jsonl
        from repro.obs.critical_path import analyze_forest
        from repro.serving.cluster import build_cluster

        cluster = build_cluster(sirius_pipeline, n_replicas=3, trace_seed=0)
        responses = cluster.run_all(input_set.all_queries[:6], workers=2)
        path = tmp_path / "fleet.jsonl"
        write_jsonl(collect_spans(responses), str(path))
        spans = read_jsonl(str(path))
        routers = [span for span in spans if span.kind == ROUTER]
        assert len(routers) == 6 and all("virtual_seconds" not in s.attributes for s in routers)
        table_wait = math.fsum(
            attribution.wait_seconds
            for analysis in analyze_forest(spans)
            for attribution in analysis.attributions
            if attribution.stage == "ROUTER"
        )
        live = ledger_from_spans(spans)
        ledger = live.category_totals()[ROUTER_WAIT]
        assert table_wait > 0
        assert ledger.seconds == pytest.approx(table_wait, rel=1e-12)
        assert ledger.events == 6 and ledger.microjoules > 0
        # fleet-report's panel leaves out exactly the measured router wait.
        from repro.obs.fleet_report import report_from_spans

        panel = report_from_spans(spans, window=16.0).cost
        assert panel["tax_microjoules"] == live.tax_microjoules() - ledger.microjoules


# ---------------------------------------------------------------------------
# The fleet report's cost panel
# ---------------------------------------------------------------------------


class TestFleetExtrapolation:
    def test_fleet_panel_prices_autoscaler_trajectory(self):
        panel = fleet_cost_panel(
            pinned_replay_ledger(),
            replica_timeline=((0, 2), (1, 3), (2, 3)),
            tick_seconds=2.0,
        )
        assert panel["provisioned_replica_seconds"] == 16.0
        assert panel["provisioned_microjoules"] == energy_microjoules(
            CMP, 16.0
        )
        assert panel["provisioned_dollars"] > 0.0


# ---------------------------------------------------------------------------
# Wasted-work accounting: the ledger is the one partition
# ---------------------------------------------------------------------------


class TestWastedWork:
    def test_chaos_run_wastes_some_spans(self):
        spans = chaos_spans(1)
        assert wasted_span_ids(spans)

    def test_split_partitions_counters_exactly(self, pipeline_chaos_spans):
        spans = pipeline_chaos_spans
        wasted_ids = wasted_span_ids(spans)
        ledger = ledger_from_spans(spans)
        flops = {category: 0 for category in CATEGORIES}
        for query in ledger.queries:
            for entry in query.entries:
                flops[entry.category] += entry.counters.flops
        assert flops[COMPUTE] + flops[DEGRADED] + flops[RETRIES] == (
            aggregate_counters(spans).flops
        )
        assert flops[COMPUTE] == aggregate_counters(
            s for s in spans if s.span_id not in wasted_ids
        ).flops
        assert flops[DEGRADED] + flops[RETRIES] == aggregate_counters(
            s for s in spans if s.span_id in wasted_ids
        ).flops
        assert ledger.stage_totals()[("QA", DEGRADED)].flops > 0

    def test_retried_attempts_are_tagged_wasted(self):
        spans = chaos_spans(1)
        from repro.obs.trace import ATTEMPT

        tagged = [
            s for s in spans
            if s.kind == ATTEMPT and s.attributes.get("wasted")
        ]
        assert tagged
        wasted_ids = wasted_span_ids(spans)
        assert all(s.span_id in wasted_ids for s in tagged)

    def test_wasted_joules_are_ledgered_separately(self):
        spans = chaos_spans(1)
        ledger = ledger_from_spans(spans)
        totals = ledger.category_totals()
        tax_uj = sum(totals[c].microjoules for c in TAX_CATEGORIES)
        assert ledger.tax_microjoules() == tax_uj
        assert totals[COMPUTE].microjoules + tax_uj == (
            ledger.total_microjoules
        )

    def test_trace_report_renders_wasted_section(self, pipeline_chaos_spans):
        from repro.obs.report import render_report

        spans = pipeline_chaos_spans
        text = render_report(spans)
        ledger = format_ledger(ledger_from_spans(spans))
        assert ledger in text
        assert any(
            line.split()[:2] == ["QA", DEGRADED] for line in ledger.splitlines()
        )
