"""Datacenter-level models: queueing, TCO, design-space search, scalability."""

from repro.datacenter.arrivals import (
    ArrivalProcess,
    BURSTY,
    BurstyProcess,
    DIURNAL,
    DiurnalProcess,
    POISSON,
    PoissonProcess,
    make_process,
)
from repro.datacenter.design import (
    CANDIDATE_SETS,
    DatacenterDesigner,
    DesignPoint,
    EFFICIENCY,
    LATENCY,
    OBJECTIVES,
    QUERY_SERVICES,
    TCO,
    WITH_FPGA,
    WITHOUT_FPGA,
    WITHOUT_FPGA_GPU,
)
from repro.datacenter.provisioning import (
    CapacityPlanner,
    ProvisioningPlan,
    WorkloadMix,
)
from repro.datacenter.queueing import (
    MM1Queue,
    improvement_curve,
    mm1_percentile,
    throughput_improvement_at_load,
)
from repro.datacenter.simulation import (
    empirical_sampler,
    exponential_sampler,
    histogram_sampler,
)
from repro.datacenter.scalability import (
    PAPER_GAP,
    ScalabilityGap,
    measure_sirius_latency,
    measure_web_search_latency,
    paper_gap,
)
from repro.datacenter.tco import TCOBreakdown, TCOModel, TCOParameters

__all__ = [
    "ArrivalProcess",
    "BURSTY",
    "BurstyProcess",
    "CANDIDATE_SETS",
    "CapacityPlanner",
    "DIURNAL",
    "DiurnalProcess",
    "POISSON",
    "PoissonProcess",
    "make_process",
    "DatacenterDesigner",
    "ProvisioningPlan",
    "WorkloadMix",
    "empirical_sampler",
    "exponential_sampler",
    "histogram_sampler",
    "mm1_percentile",
    "DesignPoint",
    "EFFICIENCY",
    "LATENCY",
    "MM1Queue",
    "OBJECTIVES",
    "PAPER_GAP",
    "QUERY_SERVICES",
    "ScalabilityGap",
    "TCO",
    "TCOBreakdown",
    "TCOModel",
    "TCOParameters",
    "WITH_FPGA",
    "WITHOUT_FPGA",
    "WITHOUT_FPGA_GPU",
    "improvement_curve",
    "measure_sirius_latency",
    "measure_web_search_latency",
    "paper_gap",
    "throughput_improvement_at_load",
]
