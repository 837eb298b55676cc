"""Datacenter design-space search (paper Tables 8/9, Figures 19/20).

Three first-order objectives, each optionally under a latency constraint
(the CMP sub-query latency, as in the paper):

- ``latency``: minimize query latency;
- ``tco``: minimize TCO per unit throughput;
- ``efficiency``: maximize performance per watt.

Candidate sets mirror the paper's columns: all platforms, without FPGA, and
without FPGA or GPU.  Homogeneous designs pick one platform for every
service; partitioned (heterogeneous) designs pick per service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.datacenter.tco import TCOModel
from repro.errors import DesignError
from repro.platforms.model import AcceleratorModel
from repro.platforms.spec import CMP, FPGA, GPU, PHI, PLATFORMS

#: Candidate sets (paper Table 8/9 column groups).
WITH_FPGA = (CMP, GPU, PHI, FPGA)
WITHOUT_FPGA = (CMP, GPU, PHI)
WITHOUT_FPGA_GPU = (CMP, PHI)
CANDIDATE_SETS: Dict[str, Tuple[str, ...]] = {
    "with FPGA": WITH_FPGA,
    "without FPGA": WITHOUT_FPGA,
    "without FPGA/GPU": WITHOUT_FPGA_GPU,
}

LATENCY = "latency"
TCO = "tco"
EFFICIENCY = "efficiency"
OBJECTIVES = (LATENCY, TCO, EFFICIENCY)
#: The ASR service a query's "ASR" stage runs as.
ASR_VARIANT = "ASR (GMM)"

#: Query-type service composition (Table 1).
QUERY_SERVICES: Dict[str, Tuple[str, ...]] = {
    "VC": ("ASR",),
    "VQ": ("ASR", "QA"),
    "VIQ": ("ASR", "QA", "IMM"),
}


@dataclass(frozen=True)
class DesignPoint:
    """One (service, platform) evaluation — a point in Figure 19."""

    service: str
    platform: str
    latency: float
    latency_improvement: float
    throughput_improvement: float
    normalized_tco: float
    tco_improvement: float
    performance_per_watt: float


class DatacenterDesigner:
    """Evaluates platforms per service and picks designs per objective."""

    def __init__(self):
        self.model = AcceleratorModel()
        self.tco_model = TCOModel()

    # -- point evaluation -----------------------------------------------------

    def evaluate(self, service: str, platform: str) -> DesignPoint:
        latency = self.model.latency(service, platform)
        throughput = self.model.throughput_improvement(service, platform)
        normalized = self.tco_model.normalized_tco(platform, throughput)
        return DesignPoint(
            service=service,
            platform=platform,
            latency=latency,
            latency_improvement=self.model.baseline_latency[service] / latency,
            throughput_improvement=throughput,
            normalized_tco=normalized,
            tco_improvement=1.0 / normalized,
            performance_per_watt=self.model.performance_per_watt(service, platform),
        )

    def all_points(self) -> List[DesignPoint]:
        """Every (service, platform) point — the Figure 19 scatter."""
        return [
            self.evaluate(service, platform)
            for service in self.model.baseline_latency
            for platform in PLATFORMS
        ]

    def _latency_constraint(self, service: str) -> float:
        """The paper's constraint: CMP (sub-query) latency."""
        return self.model.latency(service, CMP)

    # -- per-service selection ---------------------------------------------------

    def best_platform(
        self,
        service: str,
        objective: str,
        candidates: Sequence[str],
    ) -> DesignPoint:
        """The winning platform for one service under one objective."""
        if objective not in OBJECTIVES:
            raise DesignError(f"unknown objective {objective!r}")
        points = [self.evaluate(service, platform) for platform in candidates]
        if objective != LATENCY:
            limit = self._latency_constraint(service)
            feasible = [p for p in points if p.latency <= limit * (1 + 1e-9)]
            if not feasible:
                raise DesignError(
                    f"no candidate meets the latency constraint for {service}"
                )
            points = feasible
        if objective == LATENCY:
            return min(points, key=lambda p: p.latency)
        if objective == TCO:
            return min(points, key=lambda p: p.normalized_tco)
        return max(points, key=lambda p: p.performance_per_watt)

    # -- homogeneous (Table 8) ------------------------------------------------------

    def homogeneous_choice(
        self, objective: str, candidates: Sequence[str]
    ) -> str:
        """One platform for *all* services, best on the aggregate objective."""
        scores: Dict[str, float] = {}
        for platform in candidates:
            points = [
                self.evaluate(service, platform)
                for service in self.model.baseline_latency
            ]
            if objective != LATENCY:
                feasible = all(
                    p.latency <= self._latency_constraint(p.service) * (1 + 1e-9)
                    for p in points
                )
                if not feasible:
                    continue
            if objective == LATENCY:
                scores[platform] = sum(p.latency for p in points)
            elif objective == TCO:
                scores[platform] = sum(p.normalized_tco for p in points)
            else:
                scores[platform] = -sum(p.performance_per_watt for p in points)
        if not scores:
            raise DesignError("no homogeneous candidate meets all constraints")
        return min(scores, key=scores.get)

    def homogeneous_table(self) -> Dict[str, Dict[str, str]]:
        """Table 8: objective -> candidate-set name -> chosen platform."""
        return {
            objective: {
                name: self.homogeneous_choice(objective, candidates)
                for name, candidates in CANDIDATE_SETS.items()
            }
            for objective in OBJECTIVES
        }

    # -- heterogeneous / partitioned (Table 9) ------------------------------------------

    def heterogeneous_table(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Table 9: objective -> candidate set -> service -> choice + gain.

        The gain is the improvement on the objective metric relative to the
        homogeneous design for the same objective and candidate set.
        """
        table: Dict[str, Dict[str, Dict[str, object]]] = {}
        for objective in OBJECTIVES:
            table[objective] = {}
            for name, candidates in CANDIDATE_SETS.items():
                homogeneous = self.homogeneous_choice(objective, candidates)
                per_service: Dict[str, object] = {}
                for service in self.model.baseline_latency:
                    best = self.best_platform(service, objective, candidates)
                    base = self.evaluate(service, homogeneous)
                    if objective == LATENCY:
                        gain = base.latency / best.latency
                    elif objective == TCO:
                        gain = base.normalized_tco / best.normalized_tco
                    else:
                        gain = best.performance_per_watt / base.performance_per_watt
                    per_service[service] = {
                        "platform": best.platform,
                        "gain": gain,
                        "homogeneous": homogeneous,
                    }
                table[objective][name] = per_service
        return table

    # -- query-level (Figure 20) ---------------------------------------------------------

    def query_latency(self, query_type: str, platform: str) -> float:
        """End-to-end query latency summing its services' latencies."""
        if query_type not in QUERY_SERVICES:
            raise DesignError(f"unknown query type {query_type!r}")
        total = 0.0
        for service in QUERY_SERVICES[query_type]:
            name = ASR_VARIANT if service == "ASR" else service
            total += self.model.latency(name, platform)
        return total

    def query_baseline_latency(self, query_type: str) -> float:
        total = 0.0
        for service in QUERY_SERVICES[query_type]:
            name = ASR_VARIANT if service == "ASR" else service
            total += self.model.baseline_latency[name]
        return total

    def query_level_summary(self, platform: str) -> Dict[str, Dict[str, float]]:
        """Figure 20 rows for one accelerated datacenter."""
        summary: Dict[str, Dict[str, float]] = {}
        for query_type, services in QUERY_SERVICES.items():
            base = self.query_baseline_latency(query_type)
            accelerated = self.query_latency(query_type, platform)
            improvement = base / accelerated
            throughput = improvement / 4.0  # vs 4-core query-parallel baseline
            names = [ASR_VARIANT if s == "ASR" else s for s in services]
            perf_watt = sum(
                self.model.performance_per_watt(name, platform) for name in names
            ) / len(names)
            summary[query_type] = {
                "latency_improvement": improvement,
                "tco_improvement": self.tco_model.tco_reduction(platform, throughput),
                "performance_per_watt": perf_watt,
            }
        return summary

    def average_query_latency_improvement(self, platform: str) -> float:
        summary = self.query_level_summary(platform)
        values = [row["latency_improvement"] for row in summary.values()]
        return sum(values) / len(values)
