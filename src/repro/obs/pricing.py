"""Power and price helpers for the cost ledger — one source of truth.

Every watt, joule, and dollar figure the observability layer (and the
figure benches) prints derives from exactly two places: the Table 6/7
constants in :mod:`repro.platforms.spec` and the Table 7 TCO arithmetic
in :mod:`repro.datacenter.tco`.  This module is the thin derivation layer
between them and the per-query ledger (:mod:`repro.obs.cost`):

- **watts**: full-server draw per platform (baseline server + accelerator
  TDP adders), plus accelerator-only TDP and the Figure 15 watt ratios;
- **dollars per server-second**: the monthly TCO (DC capex/opex, server
  capex/opex, energy) amortized to one second of provisioned server time
  — the rate that prices both per-query attributions and fleet
  trajectories;
- **dollars per joule**: the electricity-only rate (PUE-burdened), for
  the energy line item on its own;
- **integer microjoules**: the ledger's exact energy unit.  Seconds are
  virtual (seed-deterministic), watts are constants, and the product is
  rounded once to an integer — so per-stage energies *sum exactly* to
  per-query and per-trace totals, byte-identically at every worker count.

The statcheck rule ``SC1002`` enforces the discipline: inline
watt/joule/dollar numeric literals are flagged everywhere outside
``platforms/spec.py`` and this module.
"""

from __future__ import annotations

from typing import Dict

from repro.datacenter.tco import (
    HOURS_PER_MONTH,
    TCOBreakdown,
    TCOModel,
    TCOParameters,
)
from repro.platforms.spec import (
    ACCELERATORS,
    CMP,
    PLATFORMS,
    server_price,
    server_watts,
    spec,
)

#: Unit conversions (exact, dimensionless scale factors).
MICROJOULES_PER_JOULE = 1_000_000
JOULES_PER_KWH = 3_600_000.0
SECONDS_PER_HOUR = 3600.0

#: Full-server power draw per platform (Table 6 adders over the baseline).
PLATFORM_WATTS: Dict[str, float] = {p: server_watts(p) for p in PLATFORMS}

#: Accelerator-card TDP alone (the Figure 15 denominator deltas).
ACCELERATOR_TDP_WATTS: Dict[str, float] = {
    p: spec(p).tdp_watts for p in PLATFORMS
}

#: Purchase price of a server equipped with each platform.
SERVER_PRICES: Dict[str, float] = {p: server_price(p) for p in PLATFORMS}


def watt_ratio(platform: str) -> float:
    """Platform TDP over the CMP TDP — Figure 15's power normalizer."""
    return spec(platform).tdp_watts / spec(CMP).tdp_watts


def server_tco_breakdown(platform: str) -> TCOBreakdown:
    """Monthly itemized TCO of one ``platform``-equipped server (Table 7)."""
    return TCOModel().platform_breakdown(platform)


def monthly_server_tco(platform: str) -> float:
    """Monthly all-in dollars for one ``platform``-equipped server."""
    return server_tco_breakdown(platform).total


def dollars_per_server_second(platform: str) -> float:
    """The TCO-amortized rate one provisioned server-second costs."""
    return monthly_server_tco(platform) / (HOURS_PER_MONTH * SECONDS_PER_HOUR)


def electricity_dollars_per_joule() -> float:
    """Electricity-only rate per *served* joule, PUE-burdened (Table 7)."""
    p = TCOParameters()
    return p.electricity_cost_per_kwh * p.pue / JOULES_PER_KWH


def energy_microjoules(platform: str, seconds: float) -> int:
    """Exact integer microjoules for ``seconds`` of full-server draw.

    The single rounding point of the energy pipeline: every ledger entry
    is produced here, and totals are integer sums of these values — which
    is what makes per-stage attributions sum *exactly* to trace totals.
    """
    if seconds < 0:
        raise ValueError("cannot price negative seconds")
    return int(round(seconds * PLATFORM_WATTS[platform] * MICROJOULES_PER_JOULE))


def electricity_dollars(microjoules: int) -> float:
    """Electricity-only dollars for an integer-microjoule energy total."""
    return (microjoules / MICROJOULES_PER_JOULE) * electricity_dollars_per_joule()


__all__ = [
    "ACCELERATORS",
    "ACCELERATOR_TDP_WATTS",
    "JOULES_PER_KWH",
    "MICROJOULES_PER_JOULE",
    "PLATFORM_WATTS",
    "SECONDS_PER_HOUR",
    "SERVER_PRICES",
    "dollars_per_server_second",
    "electricity_dollars",
    "electricity_dollars_per_joule",
    "energy_microjoules",
    "monthly_server_tco",
    "server_tco_breakdown",
    "watt_ratio",
]
