"""Declarative SLOs, error budgets, and multi-window burn-rate alerts.

The autoscaler (PR 8) *acts* on a tail target; this module *judges* the
outcome the way a production SRE rotation would (Google SRE workbook,
ch. 5): pick objectives, account the error budget they imply, and alert
on the budget's **burn rate** over paired long/short lookbacks so a real
incident pages fast while a slow leak files a ticket.

- An :class:`SLODefinition` is either an **availability** objective
  (fraction of queries that must not fail — degraded still counts as
  served, the paper's graceful-degradation contract) or a **latency**
  objective (fraction of queries that must land under a threshold, e.g.
  e2e p99 < 2 s ⇒ target 0.99 at ``threshold=2.0``).
- Evaluation runs over :class:`~repro.obs.timeseries.RollupSnapshot`
  windows: per window, exact good/bad counts; over the horizon, the
  budget consumed as a fraction of ``(1 - target)``.
- A :class:`BurnRateAlert` fires at window ``w`` when the budget burns at
  ``>= factor`` times the sustainable rate over *both* a long and a short
  trailing window — the standard construction that makes pages both fast
  (short window catches onset) and non-flappy (long window confirms).

All arithmetic is integer counts and single-rounded float divisions over
deterministic rollups, so the SLO table in ``repro fleet-report`` is
byte-identical across backends and replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.timeseries import (
    E2E_METRIC,
    QUERIES_METRIC,
    RollupSnapshot,
    TTFP_METRIC,
)

#: SLO kinds.
AVAILABILITY = "availability"
LATENCY = "latency"


@dataclass(frozen=True)
class SLODefinition:
    """One objective: a target fraction of good events over the horizon."""

    name: str
    kind: str                 #: AVAILABILITY or LATENCY
    target: float             #: required good fraction, in (0, 1)
    metric: str = QUERIES_METRIC
    threshold: float = 0.0    #: latency bound in seconds (LATENCY kind only)

    def __post_init__(self):
        if self.kind not in (AVAILABILITY, LATENCY):
            raise ConfigurationError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError("SLO target must be in (0, 1)")
        if self.kind == LATENCY and self.threshold <= 0:
            raise ConfigurationError("latency SLOs need a positive threshold")

    @property
    def budget(self) -> float:
        """The error budget: the allowed bad fraction, ``1 - target``."""
        return 1.0 - self.target


def default_slos(
    e2e_threshold: float = 2.5,
    ttfp_threshold: float = 0.5,
) -> Tuple[SLODefinition, ...]:
    """The fleet's stock objectives: availability (99.9%), e2e p99, TTFP p95.

    Latency targets encode the percentile: "e2e p99 under the threshold"
    is a 0.99 target on the fraction of queries beating the threshold;
    "TTFP p95" likewise at 0.95.
    """
    return (
        SLODefinition(
            name="availability", kind=AVAILABILITY, target=0.999,
            metric=QUERIES_METRIC,
        ),
        SLODefinition(
            name="e2e-p99", kind=LATENCY, target=0.99,
            metric=E2E_METRIC, threshold=e2e_threshold,
        ),
        SLODefinition(
            name="ttfp-p95", kind=LATENCY, target=0.95,
            metric=TTFP_METRIC, threshold=ttfp_threshold,
        ),
    )


@dataclass(frozen=True)
class WindowCompliance:
    """Exact good/bad event counts for one rollup window."""

    window: int
    good: int
    bad: int


@dataclass(frozen=True)
class BurnRateAlert:
    """A paired long/short-lookback burn-rate alerting rule.

    Lookbacks are counted in rollup windows; the alert fires at a window
    when the budget burn rate (bad fraction ÷ budget) is at least
    ``factor`` over **both** trailing lookbacks.
    """

    name: str
    long_windows: int
    short_windows: int
    factor: float

    def __post_init__(self):
        if self.long_windows < self.short_windows or self.short_windows < 1:
            raise ConfigurationError(
                "need long_windows >= short_windows >= 1"
            )
        if self.factor <= 0:
            raise ConfigurationError("burn-rate factor must be positive")


#: Replay-scaled analogs of the SRE workbook's page/ticket pairs
#: (1h/5m @ 14.4x and 6h/30m @ 6x, in rollup-window units).
DEFAULT_ALERTS = (
    BurnRateAlert(name="page", long_windows=12, short_windows=2, factor=8.0),
    BurnRateAlert(name="ticket", long_windows=36, short_windows=6, factor=2.0),
)


@dataclass(frozen=True)
class AlertFiring:
    """One alert rule firing at one evaluation window."""

    alert: str
    window: int
    long_burn: float
    short_burn: float


@dataclass(frozen=True)
class SLOStatus:
    """One objective evaluated over a rollup horizon."""

    slo: SLODefinition
    windows: Tuple[WindowCompliance, ...]
    good: int
    bad: int
    firings: Tuple[AlertFiring, ...] = ()

    @property
    def total(self) -> int:
        return self.good + self.bad

    @property
    def compliance(self) -> float:
        """Measured good fraction (1.0 on an empty horizon: nothing failed)."""
        return self.good / self.total if self.total else 1.0

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget spent (can exceed 1.0)."""
        if self.total == 0:
            return 0.0
        return (self.bad / self.total) / self.slo.budget

    @property
    def met(self) -> bool:
        return self.compliance >= self.slo.target


def _availability_windows(
    snapshot: RollupSnapshot, slo: SLODefinition
) -> List[WindowCompliance]:
    good = snapshot.counter_by_window(slo.metric, status="ok")
    degraded = snapshot.counter_by_window(slo.metric, status="degraded")
    failed = snapshot.counter_by_window(slo.metric, status="failed")
    windows = sorted(set(good) | set(degraded) | set(failed))
    return [
        WindowCompliance(
            window=window,
            good=good.get(window, 0) + degraded.get(window, 0),
            bad=failed.get(window, 0),
        )
        for window in windows
    ]


def _latency_windows(
    snapshot: RollupSnapshot, slo: SLODefinition
) -> List[WindowCompliance]:
    compliance = []
    for window, panel in sorted(snapshot.panel_by_window(slo.metric).items()):
        good = sum(
            weight
            for value, weight in zip(panel.samples, panel.weights)
            if value <= slo.threshold
        )
        compliance.append(
            WindowCompliance(window=window, good=good, bad=panel.kept - good)
        )
    return compliance


def _burn_over(
    windows: Sequence[WindowCompliance], start: int, end: int, budget: float
) -> float:
    """Burn rate over trailing window indices ``(start, end]`` (inclusive)."""
    good = bad = 0
    for cell in windows:
        if start < cell.window <= end:
            good += cell.good
            bad += cell.bad
    total = good + bad
    if total == 0:
        return 0.0
    return (bad / total) / budget


def _firings(
    windows: Sequence[WindowCompliance],
    budget: float,
    alerts: Sequence[BurnRateAlert],
) -> List[AlertFiring]:
    firings = []
    if not windows:
        return firings
    for index in range(windows[0].window, windows[-1].window + 1):
        for alert in alerts:
            long_burn = _burn_over(
                windows, index - alert.long_windows, index, budget
            )
            short_burn = _burn_over(
                windows, index - alert.short_windows, index, budget
            )
            if long_burn >= alert.factor and short_burn >= alert.factor:
                firings.append(
                    AlertFiring(
                        alert=alert.name, window=index,
                        long_burn=long_burn, short_burn=short_burn,
                    )
                )
    return firings


def evaluate_slo(
    snapshot: RollupSnapshot,
    slo: SLODefinition,
) -> SLOStatus:
    """Evaluate one objective over a rollup snapshot's full horizon, firing
    the ``DEFAULT_ALERTS``."""
    if slo.kind == AVAILABILITY:
        windows = _availability_windows(snapshot, slo)
    else:
        windows = _latency_windows(snapshot, slo)
    good = sum(cell.good for cell in windows)
    bad = sum(cell.bad for cell in windows)
    return SLOStatus(
        slo=slo,
        windows=tuple(windows),
        good=good,
        bad=bad,
        firings=tuple(_firings(windows, slo.budget, DEFAULT_ALERTS)),
    )


def evaluate_slos(
    snapshot: RollupSnapshot,
    slos: Optional[Sequence[SLODefinition]] = None,
) -> Tuple[SLOStatus, ...]:
    """Evaluate objectives (default set when none given) with data present.

    Objectives whose metric never appears in the snapshot are skipped —
    a replay without a TTFP model should not report a vacuously-met TTFP
    SLO.
    """
    chosen = tuple(slos) if slos is not None else default_slos()
    present = set(snapshot.metrics())
    return tuple(
        evaluate_slo(snapshot, slo)
        for slo in chosen
        if slo.metric in present
    )
