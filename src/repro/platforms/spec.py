"""Accelerator platform specifications (paper Table 3) and power/cost (Table 6).

These are the four platforms of the paper's study.  We have none of this
hardware; the specs parameterize the analytical model in
:mod:`repro.platforms.model`, exactly as the paper's Section 5 analysis is
itself derived from Table 5 measurements plus these constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Canonical platform keys, used across the platforms/datacenter packages.
CMP = "cmp"
GPU = "gpu"
PHI = "phi"
FPGA = "fpga"

PLATFORMS: Tuple[str, ...] = (CMP, GPU, PHI, FPGA)

#: Platforms that are *added to* a baseline server (the CMP is the server).
ACCELERATORS: Tuple[str, ...] = (GPU, PHI, FPGA)


@dataclass(frozen=True)
class PlatformSpec:
    """One row of Table 3 merged with its Table 6 power/cost entry."""

    key: str
    model: str
    frequency_ghz: float
    n_cores: int
    n_hw_threads: int
    memory_gb: float
    memory_bw_gbs: float
    peak_tflops: float
    tdp_watts: float            # Table 6
    cost_dollars: float         # Table 6
    transfer_overhead: float    # fraction of accelerated time lost to PCIe/launch


SPECS: Dict[str, PlatformSpec] = {
    CMP: PlatformSpec(
        key=CMP, model="Intel Xeon E3-1240 V3",
        frequency_ghz=3.40, n_cores=4, n_hw_threads=8,
        memory_gb=12, memory_bw_gbs=25.6, peak_tflops=0.5,
        tdp_watts=80.0, cost_dollars=250.0, transfer_overhead=0.0,
    ),
    GPU: PlatformSpec(
        key=GPU, model="NVIDIA GTX 770",
        frequency_ghz=1.05, n_cores=8, n_hw_threads=12288,
        memory_gb=2, memory_bw_gbs=224.0, peak_tflops=3.2,
        tdp_watts=230.0, cost_dollars=399.0, transfer_overhead=0.05,
    ),
    PHI: PlatformSpec(
        key=PHI, model="Intel Xeon Phi 5110P",
        frequency_ghz=1.05, n_cores=60, n_hw_threads=240,
        memory_gb=8, memory_bw_gbs=320.0, peak_tflops=2.1,
        tdp_watts=225.0, cost_dollars=2437.0, transfer_overhead=0.05,
    ),
    FPGA: PlatformSpec(
        key=FPGA, model="Xilinx Virtex-6 ML605",
        frequency_ghz=0.40, n_cores=0, n_hw_threads=0,
        memory_gb=0.5, memory_bw_gbs=6.4, peak_tflops=0.5,
        tdp_watts=22.0, cost_dollars=1795.0, transfer_overhead=0.01,
    ),
}


def spec(platform: str) -> PlatformSpec:
    """Spec lookup with a helpful error."""
    try:
        return SPECS[platform]
    except KeyError:
        raise KeyError(
            f"unknown platform {platform!r}; expected one of {PLATFORMS}"
        ) from None


#: Baseline server configuration (Table 7 footnote / OpenCompute build).
BASELINE_SERVER_PRICE = 2102.0     # dollars
BASELINE_SERVER_WATTS = 163.6      # watts

#: Table 7 money-per-watt constants.  Every watt/dollar figure in the repo
#: traces back to this module (or :mod:`repro.obs.pricing`, which derives
#: from it) — statcheck rule SC1002 flags inline copies anywhere else.
ELECTRICITY_COST_PER_KWH = 0.067   # dollars per kWh (Table 7)
DC_PRICE_PER_WATT = 10.0           # datacenter capex, dollars per peak watt
DC_OPEX_PER_WATT_MONTH = 0.04      # datacenter opex, dollars per watt-month


def server_price(platform: str) -> float:
    """Purchase price of a server equipped with ``platform``."""
    base = BASELINE_SERVER_PRICE
    if platform == CMP:
        return base
    return base + spec(platform).cost_dollars


def server_watts(platform: str) -> float:
    """Power draw of a server equipped with ``platform``."""
    base = BASELINE_SERVER_WATTS
    if platform == CMP:
        return base
    return base + spec(platform).tdp_watts
