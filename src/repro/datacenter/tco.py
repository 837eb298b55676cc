"""Total cost of ownership model (paper Table 7, after Barroso et al.).

Monthly TCO per server =
    datacenter capex amortization  ($/W over the DC's depreciation life)
  + datacenter opex                ($/W-month)
  + server capex amortization     (price over the server's life)
  + server opex                   (fraction of capex per year)
  + energy                        (average power x PUE x electricity price)

Datacenter infrastructure is provisioned for *peak* power (TDP x PUE);
energy is billed on *average* power (utilization-scaled).  Normalized per
unit throughput, this yields the paper's Figure 18.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.platforms.spec import (
    CMP,
    DC_OPEX_PER_WATT_MONTH,
    DC_PRICE_PER_WATT,
    ELECTRICITY_COST_PER_KWH,
    server_price,
    server_watts,
)

HOURS_PER_MONTH = 730.0
DC_DEPRECIATION_YEARS = 12.0
SERVER_OPEX_FRACTION_PER_YEAR = 0.05


@dataclass(frozen=True)
class TCOParameters:
    """The Table 7 figures a TCO sweep varies (money/watt figures live in
    :mod:`platforms.spec`; the datacenter's depreciation and the server opex
    are ``DC_DEPRECIATION_YEARS`` and ``SERVER_OPEX_FRACTION_PER_YEAR``)."""

    server_depreciation_years: float = 3.0
    average_utilization: float = 0.45
    electricity_cost_per_kwh: float = ELECTRICITY_COST_PER_KWH
    pue: float = 1.1

    def __post_init__(self) -> None:
        if not 0 < self.average_utilization <= 1:
            raise ConfigurationError("utilization must be in (0, 1]")
        if self.pue < 1:
            raise ConfigurationError("PUE cannot be below 1")


@dataclass(frozen=True)
class TCOBreakdown:
    """Monthly dollars per server, itemized."""

    dc_capex: float
    dc_opex: float
    server_capex: float
    server_opex: float
    energy: float

    @property
    def total(self) -> float:
        return (
            self.dc_capex + self.dc_opex + self.server_capex
            + self.server_opex + self.energy
        )


class TCOModel:
    """Computes per-server and per-throughput TCO across platforms."""

    def __init__(self, parameters: TCOParameters = TCOParameters()):
        self.parameters = parameters

    def server_breakdown(
        self, price: float, watts: float
    ) -> TCOBreakdown:
        """Monthly TCO of one server with the given price and TDP."""
        if price <= 0 or watts <= 0:
            raise ConfigurationError("price and watts must be positive")
        p = self.parameters
        peak_watts = watts * p.pue
        dc_capex = DC_PRICE_PER_WATT * peak_watts / (DC_DEPRECIATION_YEARS * 12.0)
        dc_opex = DC_OPEX_PER_WATT_MONTH * peak_watts
        server_capex = price / (p.server_depreciation_years * 12.0)
        server_opex = price * SERVER_OPEX_FRACTION_PER_YEAR / 12.0
        average_kw = watts * p.pue * p.average_utilization / 1000.0
        energy = average_kw * HOURS_PER_MONTH * p.electricity_cost_per_kwh
        return TCOBreakdown(dc_capex, dc_opex, server_capex, server_opex, energy)

    def platform_breakdown(self, platform: str) -> TCOBreakdown:
        """Monthly TCO of a server equipped with ``platform`` (Table 6 adders)."""
        return self.server_breakdown(server_price(platform), server_watts(platform))

    def monthly_tco(self, platform: str) -> float:
        return self.platform_breakdown(platform).total

    def cost_ratio(self, platform: str) -> float:
        """Accelerated server TCO relative to the baseline server."""
        return self.monthly_tco(platform) / self.monthly_tco(CMP)

    def normalized_tco(self, platform: str, throughput_improvement: float) -> float:
        """Figure 18's quantity: DC TCO per unit throughput, CMP = 1.0.

        A platform that costs ``r`` times the baseline server but serves
        ``t`` times the load needs r/t of the baseline's dollars.
        """
        if throughput_improvement <= 0:
            raise ConfigurationError("throughput improvement must be positive")
        return self.cost_ratio(platform) / throughput_improvement

    def tco_reduction(self, platform: str, throughput_improvement: float) -> float:
        """Convenience: how many times cheaper than the CMP datacenter."""
        return 1.0 / self.normalized_tco(platform, throughput_improvement)
