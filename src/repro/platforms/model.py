"""The accelerated-server performance model (drives Figures 14-16).

Given a measured or assumed baseline latency per service, the model derives:

- per-platform service latency (Figure 14): baseline / service_speedup,
  inflated by the platform's data-transfer overhead;
- performance/watt (Figure 15): throughput per accelerator TDP, normalized
  to the 4-core query-parallel CMP baseline;
- server throughput improvement at full load (Figure 16): the accelerated
  server's query rate over the 4-core baseline's.

This substitutes for hardware we do not have: the paper's own Section 5
numbers are derived from Table 5 speedups plus these same constants, so the
derivation — not the silicon — is what is being reproduced (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError
from repro.platforms.spec import CMP, PLATFORMS, spec
from repro.platforms.speedups import service_speedup

#: Default baseline (single-core) service latencies in seconds, paper Fig 14
#: scale: ASR ~4.2 s for a GMM query, QA dominates, IMM in between.  Override
#: with latencies measured from the Python pipeline for self-contained runs.
DEFAULT_BASELINE_LATENCY: Dict[str, float] = {
    "ASR (GMM)": 4.2,
    "ASR (DNN)": 3.1,
    "QA": 9.9,
    "IMM": 2.7,
}

#: Cores serving independent queries on the baseline server (Table 3).
BASELINE_CORES = 4


@dataclass
class AcceleratorModel:
    """Latency/energy/throughput model over the four platforms."""

    baseline_latency: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BASELINE_LATENCY)
    )

    def __post_init__(self) -> None:
        for service, latency in self.baseline_latency.items():
            if latency <= 0:
                raise ConfigurationError(f"non-positive latency for {service}")

    # -- Figure 14 -------------------------------------------------------------

    def speedup(self, service: str, platform: str) -> float:
        return service_speedup(service, platform)

    def latency(self, service: str, platform: str) -> float:
        """Accelerated query latency for one service on one platform."""
        if service not in self.baseline_latency:
            raise KeyError(f"no baseline latency for service {service!r}")
        base = self.baseline_latency[service]
        accelerated = base / self.speedup(service, platform)
        return accelerated * (1.0 + spec(platform).transfer_overhead)

    def latency_table(self) -> Dict[str, Dict[str, float]]:
        """service -> platform -> latency seconds (plus the 1x baseline)."""
        table: Dict[str, Dict[str, float]] = {}
        for service in self.baseline_latency:
            row = {"baseline": self.baseline_latency[service]}
            for platform in PLATFORMS:
                row[platform] = self.latency(service, platform)
            table[service] = row
        return table

    # -- Figure 16 -------------------------------------------------------------

    def throughput_improvement(self, service: str, platform: str) -> float:
        """Server throughput gain over the 4-core query-parallel baseline.

        The baseline server runs BASELINE_CORES independent queries; an
        accelerated server serves queries at 1/latency.  At 100% load this
        is the paper's Figure 16 (the lower bound of Figure 17).
        """
        effective = self.baseline_latency[service] / self.latency(service, platform)
        return effective / BASELINE_CORES

    def throughput_table(self) -> Dict[str, Dict[str, float]]:
        return {
            service: {
                platform: self.throughput_improvement(service, platform)
                for platform in PLATFORMS
            }
            for service in self.baseline_latency
        }

    # -- Figure 15 -------------------------------------------------------------

    def performance_per_watt(self, service: str, platform: str) -> float:
        """Throughput per accelerator watt, normalized to the CMP baseline.

        Matches the paper's normalization: the baseline is all four CMP
        cores serving queries in parallel at the CPU's TDP; accelerators are
        charged their own TDP (Table 6).
        """
        throughput_gain = self.throughput_improvement(service, platform)
        watt_ratio = spec(platform).tdp_watts / spec(CMP).tdp_watts
        return throughput_gain / watt_ratio

    def performance_per_watt_table(self) -> Dict[str, Dict[str, float]]:
        return {
            service: {
                platform: self.performance_per_watt(service, platform)
                for platform in PLATFORMS
            }
            for service in self.baseline_latency
        }
