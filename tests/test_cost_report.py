"""The cost ledger: exact attribution, golden JSON, and wasted work.

Acceptance checks for the cost & energy observability plane:

- per-stage ledger attributions sum **exactly** (integer microjoules,
  fsum dollars) to per-query and per-trace totals, including on
  hypothesis-generated forests — the energy analogue of the
  critical-path conservation invariant;
- the ``repro cost-report`` JSON of a pinned chaos replay matches a
  committed golden byte-for-byte, and the ledger of the same chaos run
  is byte-identical across the serial/thread/process backends;
- the fleet report's cost panel prices the autoscaler's provisioned
  trajectory;
- wasted work (retried and degraded-then-discarded attempts) partitions
  out of served counters exactly — the regression for the
  ``counters_by_key`` blending bug.
"""

import json
import math
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.obs import collect_spans, read_jsonl, to_jsonl
from repro.obs.cost import (
    CATEGORIES,
    COMPUTE,
    ROUTER_WAIT,
    TAX_CATEGORIES,
    fleet_cost_panel,
    ledger_from_replay,
    ledger_from_spans,
    render_cost_report,
    report_to_json,
)
from repro.obs.counters import (
    counters_by_key,
    split_wasted_counters,
    wasted_span_ids,
)
from repro.obs.pricing import energy_microjoules
from repro.obs.trace import QUERY, ROUTER, SERVICE, Span
from repro.platforms.spec import CMP

from tests.test_fleet_report import chaos_spans, BACKENDS

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "fixtures" / "cost" / "cost-report.json"


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
            assert query.dollars == math.fsum(
                entry.dollars for entry in query.entries
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
        self.assert_conserved(ledger_from_spans(chaos_spans("serial")))

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
# Byte identity: backends and the golden file
# ---------------------------------------------------------------------------


class TestByteIdentity:
    def test_ledger_identical_across_backends_under_chaos(self):
        rendered = {}
        for backend in BACKENDS:
            ledger = ledger_from_spans(chaos_spans(backend))
            rendered[backend] = (
                render_cost_report(ledger), report_to_json(ledger)
            )
        assert (
            rendered["serial"] == rendered["thread"] == rendered["process"]
        )

    def test_json_matches_golden_byte_for_byte(self):
        assert report_to_json(pinned_replay_ledger()) == GOLDEN.read_text()

    def test_report_is_replay_stable(self):
        first = pinned_replay_ledger()
        second = pinned_replay_ledger()
        assert report_to_json(first) == report_to_json(second)
        assert render_cost_report(first) == render_cost_report(second)

    def test_jsonl_roundtrip_is_lossless(self):
        spans = chaos_spans("serial")
        replayed = read_jsonl(to_jsonl(spans, timing=False).splitlines())
        assert report_to_json(
            ledger_from_spans(spans)
        ) == report_to_json(ledger_from_spans(replayed))


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
# Wasted-work accounting (the counters_by_key regression)
# ---------------------------------------------------------------------------


class TestWastedWork:
    def test_chaos_run_wastes_some_spans(self):
        spans = chaos_spans("serial")
        assert wasted_span_ids(spans)

    def test_split_partitions_counters_exactly(self):
        spans = chaos_spans("serial")
        served, wasted = split_wasted_counters(spans)
        merged = counters_by_key(spans)
        keys = set(served) | set(wasted)
        assert keys == set(merged)
        from repro.obs.counters import WorkCounters

        for key in keys:
            combined = (
                served.get(key, WorkCounters())
                + wasted.get(key, WorkCounters())
            )
            assert combined == merged[key], key

    def test_retried_attempts_are_tagged_wasted(self):
        spans = chaos_spans("serial")
        from repro.obs.trace import ATTEMPT

        tagged = [
            s for s in spans
            if s.kind == ATTEMPT and s.attributes.get("wasted")
        ]
        assert tagged
        wasted_ids = wasted_span_ids(spans)
        assert all(s.span_id in wasted_ids for s in tagged)

    def test_wasted_joules_are_ledgered_separately(self):
        spans = chaos_spans("serial")
        ledger = ledger_from_spans(spans)
        totals = ledger.category_totals()
        tax_uj = sum(totals[c].microjoules for c in TAX_CATEGORIES)
        assert ledger.tax_microjoules() == tax_uj
        assert totals[COMPUTE].microjoules + tax_uj == (
            ledger.total_microjoules
        )

    def test_trace_report_renders_wasted_section(self):
        from repro.obs.report import render_report

        text = render_report(chaos_spans("serial"))
        assert "Wasted work" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_smoke_replay_exits_zero(self, capsys):
        assert main([
            "cost-report", "--smoke", "--queries", "300",
        ]) == 0
        out = capsys.readouterr()
        assert "Cost & energy ledger" in out.out
        assert "cost-report determinism: ok" in out.err

    def test_json_flag_emits_canonical_json(self, capsys):
        assert main(["cost-report", "--queries", "200", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.cost-report/v2"
        assert payload["source"] == "replay"
        assert set(payload["categories"]) == set(CATEGORIES)

    def test_span_export_mode_with_platform(self, tmp_path, capsys):
        spans = chaos_spans("serial")
        path = tmp_path / "spans.jsonl"
        path.write_text(to_jsonl(spans, timing=False))
        # a span export is priced on the CMP baseline it ran on
        assert main(["cost-report", str(path), "--smoke"]) == 0
        out = capsys.readouterr().out
        assert ["platform", "cmp"] in [line.split() for line in out.splitlines()]
        assert "Per-stage attribution" in out

    def test_router_wait_is_priced_from_replay(self, capsys):
        assert main(["cost-report", "--queries", "400", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["categories"][ROUTER_WAIT]["microjoules"] > 0
