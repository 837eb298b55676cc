"""Table 7 & Figure 18: the TCO model and normalized datacenter TCO.

Claims: GPU achieves >8x TCO reduction for ASR (DNN); FPGA achieves >4x for
IMM; overall FPGA and GPU provide high TCO reduction while Phi lags.
"""

import pytest

from repro.analysis import format_table
from repro.datacenter import TCOModel, TCOParameters
from repro.datacenter.tco import DC_DEPRECIATION_YEARS, SERVER_OPEX_FRACTION_PER_YEAR
from repro.obs.pricing import (
    PLATFORM_WATTS,
    SERVER_PRICES,
    monthly_server_tco,
    server_tco_breakdown,
)
from repro.platforms import AcceleratorModel, FPGA, GPU, PHI, PLATFORMS, SERVICES
from repro.platforms.spec import DC_OPEX_PER_WATT_MONTH, DC_PRICE_PER_WATT


@pytest.fixture(scope="module")
def tco():
    return TCOModel()


@pytest.fixture(scope="module")
def model():
    return AcceleratorModel()


def test_table7_report(tco, save_report):
    p = tco.parameters
    rows = [
        ["DC depreciation time", f"{DC_DEPRECIATION_YEARS:.0f} years"],
        ["Server depreciation time", f"{p.server_depreciation_years:.0f} years"],
        ["Average server utilization", f"{p.average_utilization:.0%}"],
        ["Electricity cost", f"${p.electricity_cost_per_kwh}/kWh"],
        ["Datacenter price", f"${DC_PRICE_PER_WATT:.0f}/W"],
        ["Datacenter opex", f"${DC_OPEX_PER_WATT_MONTH}/W-month"],
        ["Server opex", f"{SERVER_OPEX_FRACTION_PER_YEAR:.0%} of capex/year"],
        ["PUE", f"{p.pue}"],
    ]
    save_report(
        "table7_tco_parameters",
        format_table("Table 7: TCO model parameters", ["Parameter", "Value"], rows),
    )
    assert p == TCOParameters()


def test_fig18_report(tco, model, save_report):
    matrix_rows = []
    for service in SERVICES:
        row = [service]
        for platform in PLATFORMS:
            throughput = model.throughput_improvement(service, platform)
            row.append(f"{tco.normalized_tco(platform, throughput):.3f}")
        matrix_rows.append(row)
    # Server price/wattage and the itemized breakdown come from the
    # repro.obs.pricing single source of truth (which derives from
    # platforms.spec + datacenter.tco), not local copies.
    breakdown_rows = []
    for platform in PLATFORMS:
        b = server_tco_breakdown(platform)
        breakdown_rows.append(
            [platform, f"{SERVER_PRICES[platform]:.0f}",
             f"{PLATFORM_WATTS[platform]:.1f}",
             f"{b.dc_capex:.1f}", f"{b.dc_opex:.1f}",
             f"{b.server_capex:.1f}", f"{b.server_opex:.1f}",
             f"{b.energy:.1f}", f"{b.total:.1f}"]
        )
    report = "\n\n".join(
        [
            format_table(
                "Figure 18: datacenter TCO normalized to CMP (lower is better)",
                ["Service", *PLATFORMS],
                matrix_rows,
            ),
            format_table(
                "Monthly per-server TCO breakdown ($)",
                ["Platform", "Price $", "Watts", "DC capex", "DC opex",
                 "Srv capex", "Srv opex", "Energy", "Total"],
                breakdown_rows,
            ),
        ]
    )
    save_report("fig18_tco", report)


def test_pricing_agrees_with_tco_model(tco):
    """repro.obs.pricing is a pure derivation of the TCO model, not a fork."""
    for platform in PLATFORMS:
        assert monthly_server_tco(platform) == tco.monthly_tco(platform)
        assert server_tco_breakdown(platform) == tco.platform_breakdown(platform)


def test_gpu_asr_dnn_over_8x(tco, model):
    reduction = tco.tco_reduction(GPU, model.throughput_improvement("ASR (DNN)", GPU))
    assert reduction > 8.0


def test_fpga_imm_over_4x(tco, model):
    reduction = tco.tco_reduction(FPGA, model.throughput_improvement("IMM", FPGA))
    assert reduction > 4.0


def test_phi_is_the_weakest_accelerator(tco, model):
    for service in SERVICES:
        phi = tco.normalized_tco(PHI, model.throughput_improvement(service, PHI))
        gpu = tco.normalized_tco(GPU, model.throughput_improvement(service, GPU))
        fpga = tco.normalized_tco(FPGA, model.throughput_improvement(service, FPGA))
        assert phi > min(gpu, fpga), service


def test_bench_tco_matrix(benchmark, tco, model):
    def build():
        return {
            service: {
                platform: tco.normalized_tco(
                    platform, model.throughput_improvement(service, platform)
                )
                for platform in PLATFORMS
            }
            for service in SERVICES
        }

    assert benchmark(build)
