"""Capacity planning over a query mix, including power-capped designs.

The paper's Section 5 treats services independently; a real deployment sees
a *mix* of VC/VQ/VIQ queries.  This module sizes a datacenter for a mix:
how many accelerated servers sustain a target query rate, what they cost
(via the TCO model), how much power they draw, and — for the paper's
"augmenting existing filled datacenters that are equipped with capped power
infrastructure" scenario — which platform serves the most load under a hard
power budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.datacenter.design import ASR_VARIANT, QUERY_SERVICES
from repro.datacenter.tco import TCOModel
from repro.errors import DesignError
from repro.platforms.model import AcceleratorModel, BASELINE_CORES
from repro.platforms.spec import CMP, PLATFORMS, server_watts

_MIX = {"VC": 0.5, "VQ": 0.35, "VIQ": 0.15}
#: Target server utilization (Table 7: 45%).
HEADROOM = 0.45


class WorkloadMix:
    """Fractions of each query type in the arriving stream: half voice
    commands, 35% voice queries, 15% voice-image queries."""

    def fraction(self, query_type: str) -> float:
        return _MIX[query_type]


@dataclass(frozen=True)
class ProvisioningPlan:
    """Capacity plan for one platform at one target load."""

    platform: str
    queries_per_second: float
    mean_service_time: float  # seconds of server time per query
    n_servers: int
    total_watts: float
    monthly_cost: float

    @property
    def cost_per_qps(self) -> float:
        return self.monthly_cost / self.queries_per_second


class CapacityPlanner:
    """Sizes datacenters for a workload mix across platform choices."""

    def __init__(self, tco_model: Optional[TCOModel] = None):
        self.model = AcceleratorModel()
        self.tco = tco_model if tco_model is not None else TCOModel()

    # -- per-query demand -------------------------------------------------------

    def query_service_time(self, query_type: str, platform: str) -> float:
        """Server seconds consumed by one query of ``query_type``.

        The CMP datacenter is the paper's baseline: each of the four cores
        serves an independent query at single-core latency (query-level
        parallelism), so CMP uses the baseline latency while accelerated
        platforms use their accelerated latency on one stream.
        """
        total = 0.0
        for service in QUERY_SERVICES[query_type]:
            name = ASR_VARIANT if service == "ASR" else service
            if platform == CMP:
                total += self.model.baseline_latency[name]
            else:
                total += self.model.latency(name, platform)
        return total

    def mean_service_time(self, mix: WorkloadMix, platform: str) -> float:
        return sum(
            mix.fraction(query_type) * self.query_service_time(query_type, platform)
            for query_type in QUERY_SERVICES
        )

    # -- sizing --------------------------------------------------------------------

    def server_capacity_qps(self, mix: WorkloadMix, platform: str) -> float:
        """Sustainable queries/second per server at the target utilization.

        The baseline CMP server runs queries on its four cores in parallel;
        accelerated servers serve one accelerated stream.
        """
        service_time = self.mean_service_time(mix, platform)
        streams = BASELINE_CORES if platform == CMP else 1
        return streams * HEADROOM / service_time

    def plan(
        self, mix: WorkloadMix, queries_per_second: float, platform: str
    ) -> ProvisioningPlan:
        """Provision ``platform`` servers for the target arrival rate."""
        if queries_per_second <= 0:
            raise DesignError("queries_per_second must be positive")
        capacity = self.server_capacity_qps(mix, platform)
        n_servers = max(int(math.ceil(queries_per_second / capacity)), 1)
        watts = n_servers * server_watts(platform)
        monthly = n_servers * self.tco.monthly_tco(platform)
        return ProvisioningPlan(
            platform=platform,
            queries_per_second=queries_per_second,
            mean_service_time=self.mean_service_time(mix, platform),
            n_servers=n_servers,
            total_watts=watts,
            monthly_cost=monthly,
        )

    def cheapest_platform(
        self, mix: WorkloadMix, queries_per_second: float
    ) -> ProvisioningPlan:
        plans = [
            self.plan(mix, queries_per_second, platform) for platform in PLATFORMS
        ]
        return min(plans, key=lambda plan: plan.monthly_cost)

    # -- power-capped design ----------------------------------------------------------

    def max_load_under_power_cap(
        self, mix: WorkloadMix, power_budget_watts: float, platform: str
    ) -> float:
        """Highest sustainable qps for ``platform`` within the power budget."""
        if power_budget_watts <= 0:
            raise DesignError("power budget must be positive")
        n_servers = int(power_budget_watts // server_watts(platform))
        return n_servers * self.server_capacity_qps(mix, platform)

    # -- partitioned (heterogeneous) provisioning ---------------------------------

    def service_demand(self, mix: WorkloadMix, queries_per_second: float) -> Dict[str, float]:
        """Baseline-normalized demand: queries/second hitting each service."""
        demand: Dict[str, float] = {}
        for query_type, services in QUERY_SERVICES.items():
            rate = queries_per_second * mix.fraction(query_type)
            for service in services:
                name = ASR_VARIANT if service == "ASR" else service
                demand[name] = demand.get(name, 0.0) + rate
        return demand

    def _service_pool(
        self, service: str, rate: float, platform: str
    ) -> Tuple[int, float]:
        """(servers, monthly cost) for one service pool on one platform."""
        if platform == CMP:
            latency = self.model.baseline_latency[service]
            streams = BASELINE_CORES
        else:
            latency = self.model.latency(service, platform)
            streams = 1
        capacity = streams * HEADROOM / latency
        n_servers = max(int(math.ceil(rate / capacity)), 1)
        return n_servers, n_servers * self.tco.monthly_tco(platform)

    def partitioned_plan(
        self, mix: WorkloadMix, queries_per_second: float
    ) -> Dict[str, Dict[str, float]]:
        """Per-service platform choice for a partitioned datacenter.

        Returns ``{service: {"platform", "servers", "monthly_cost"}}`` —
        each service pool independently picks its cheapest platform, the
        paper's Table 9 strategy applied to capacity planning.
        """
        if queries_per_second <= 0:
            raise DesignError("queries_per_second must be positive")
        plan: Dict[str, Dict[str, float]] = {}
        for service, rate in self.service_demand(mix, queries_per_second).items():
            best = None
            for platform in PLATFORMS:
                n_servers, cost = self._service_pool(service, rate, platform)
                if best is None or cost < best[2]:
                    best = (platform, n_servers, cost)
            plan[service] = {
                "platform": best[0],
                "servers": best[1],
                "monthly_cost": best[2],
            }
        return plan

    def partitioned_monthly_cost(
        self, mix: WorkloadMix, queries_per_second: float
    ) -> float:
        plan = self.partitioned_plan(mix, queries_per_second)
        return sum(pool["monthly_cost"] for pool in plan.values())

    def power_capped_design(
        self, mix: WorkloadMix, power_budget_watts: float
    ) -> Tuple[str, float]:
        """(platform, qps) maximizing served load under the power cap.

        The paper's observation to reproduce: the FPGA's performance/watt
        makes it the choice "for augmenting existing filled datacenters that
        are equipped with capped power infrastructure support".
        """
        best_platform = None
        best_load = -1.0
        for platform in PLATFORMS:
            load = self.max_load_under_power_cap(mix, power_budget_watts, platform)
            if load > best_load:
                best_platform, best_load = platform, load
        if best_platform is None:
            raise DesignError("no platform fits the power budget")
        return best_platform, best_load
