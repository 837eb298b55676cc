"""SLO accounting and multi-window burn-rate alerts.

Exact-count checks against hand-built rollup snapshots: availability
counts degraded-as-served (the paper's graceful-degradation contract),
latency objectives count threshold-beaters, budgets divide exactly, and
the paired long/short lookback construction pages on fast burns while
staying quiet on slow leaks that only the ticket rule should catch.
"""

import pytest

from repro.errors import ConfigurationError
from repro.obs.slo import (
    AVAILABILITY,
    BurnRateAlert,
    LATENCY,
    SLODefinition,
    default_slos,
    evaluate_slo,
    evaluate_slos,
)
from repro.obs.timeseries import (
    E2E_METRIC,
    QUERIES_METRIC,
    RollupStore,
    TTFP_METRIC,
)


def store_with_failures(per_window_failed, per_window_ok=96, windows=40):
    store = RollupStore(window_seconds=1.0)
    for w in range(windows):
        t = float(w)
        store.inc(QUERIES_METRIC, t, amount=per_window_ok, status="ok")
        store.inc(QUERIES_METRIC, t, amount=2, status="degraded")
        failed = per_window_failed(w) if callable(per_window_failed) \
            else per_window_failed
        if failed:
            store.inc(QUERIES_METRIC, t, amount=failed, status="failed")
    return store.snapshot()


class TestDefinitions:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SLODefinition(name="x", kind="latencyish", target=0.99)
        with pytest.raises(ConfigurationError):
            SLODefinition(name="x", kind=AVAILABILITY, target=1.0)
        with pytest.raises(ConfigurationError):
            SLODefinition(name="x", kind=LATENCY, target=0.99, threshold=0.0)
        with pytest.raises(ConfigurationError):
            BurnRateAlert(name="bad", long_windows=2, short_windows=6,
                          factor=2.0)

    def test_default_slos_cover_the_three_objectives(self):
        slos = default_slos(e2e_threshold=2.0, ttfp_threshold=0.4)
        by_name = {slo.name: slo for slo in slos}
        assert by_name["availability"].kind == AVAILABILITY
        assert by_name["e2e-p99"].metric == E2E_METRIC
        assert by_name["e2e-p99"].threshold == 2.0
        assert by_name["ttfp-p95"].metric == TTFP_METRIC
        assert by_name["ttfp-p95"].target == 0.95
        assert abs(by_name["availability"].budget - 0.001) < 1e-12


class TestAvailability:
    def test_degraded_counts_as_served(self):
        snapshot = store_with_failures(0)
        slo = SLODefinition(name="avail", kind=AVAILABILITY, target=0.999)
        status = evaluate_slo(snapshot, slo)
        assert status.bad == 0
        assert status.good == 40 * 98          # ok + degraded
        assert status.compliance == 1.0
        assert status.met and status.budget_consumed == 0.0

    def test_exact_budget_accounting(self):
        # 2 failures per window over 100 total -> bad fraction 0.02,
        # against a 0.99 target -> budget burned exactly 2x over.
        snapshot = store_with_failures(2)
        slo = SLODefinition(name="avail", kind=AVAILABILITY, target=0.99)
        status = evaluate_slo(snapshot, slo)
        assert status.bad == 80
        assert status.compliance == 0.98
        assert status.budget_consumed == pytest.approx(2.0)
        assert not status.met


class TestLatency:
    def test_threshold_beaters_are_good(self):
        store = RollupStore(window_seconds=1.0)
        for i, value in enumerate((0.1, 0.2, 0.3, 1.5, 2.5)):
            store.observe(E2E_METRIC, float(i % 2), value)
        slo = SLODefinition(name="e2e", kind=LATENCY, target=0.99,
                            metric=E2E_METRIC, threshold=1.0)
        status = evaluate_slo(store.snapshot(), slo)
        assert (status.good, status.bad) == (3, 2)
        assert status.compliance == 0.6


class TestBurnRateAlerts:
    def test_fast_burn_pages_slow_leak_tickets(self):
        # Windows 10-13 melt down (50% failures); elsewhere clean.
        meltdown = store_with_failures(lambda w: 96 if 10 <= w < 14 else 0)
        slo = SLODefinition(name="avail", kind=AVAILABILITY, target=0.99)
        status = evaluate_slo(meltdown, slo)
        names = {f.alert for f in status.firings}
        assert "page" in names
        # a slow ~3%-of-traffic leak never reaches the 8x page factor
        # (not exactly 2% — a burn sitting on the factor boundary would
        # make the test hinge on one float ulp)
        leak = store_with_failures(3)
        leak_status = evaluate_slo(leak, slo)
        leak_names = {f.alert for f in leak_status.firings}
        assert leak_names == {"ticket"}

    def test_firing_requires_both_lookbacks(self):
        # A single bad window inside a long clean history: the short
        # lookback spikes but the long lookback dilutes below the factor,
        # so the page rule stays quiet.
        blip = store_with_failures(lambda w: 20 if w == 30 else 0)
        slo = SLODefinition(name="avail", kind=AVAILABILITY, target=0.99)
        status = evaluate_slo(blip, slo)
        assert "page" not in {f.alert for f in status.firings}

    def test_clean_horizon_never_fires(self):
        snapshot = store_with_failures(0)
        slo = SLODefinition(name="avail", kind=AVAILABILITY, target=0.999)
        status = evaluate_slo(snapshot, slo)
        assert status.firings == ()


class TestEvaluateSlos:
    def test_skips_objectives_without_data(self):
        snapshot = store_with_failures(0)  # QUERIES only, no latency panels
        statuses = evaluate_slos(snapshot, default_slos())
        assert [s.slo.name for s in statuses] == ["availability"]

    def test_replay_snapshot_supports_all_three(self):
        from repro.datacenter.arrivals import PoissonProcess
        from repro.datacenter.simulation import exponential_sampler
        from repro.serving.cluster import replay_cluster

        result = replay_cluster(
            PoissonProcess(rate=20.0),
            exponential_sampler(0.05, seed=2),
            600,
            n_replicas=2,
            seed=2,
        )
        statuses = evaluate_slos(result.rollups(), default_slos())
        assert [s.slo.name for s in statuses] == [
            "availability", "e2e-p99", "ttfp-p95"
        ]
        for status in statuses:
            assert status.total > 0
