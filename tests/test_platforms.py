"""Tests for platform specs, Table 5 speedups, and the accelerator model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.platforms import (
    ASR_DNN,
    ASR_GMM,
    AcceleratorModel,
    BASELINE_SERVER_PRICE,
    BASELINE_SERVER_WATTS,
    CMP,
    DEFAULT_FRACTIONS,
    FPGA,
    GPU,
    IMM,
    KERNEL_SPEEDUPS,
    PHI,
    PLATFORMS,
    QA,
    SERVICES,
    heat_map_rows,
    kernel_speedup,
    server_price,
    server_watts,
    service_speedup,
    service_speedup_table,
    spec,
)


class TestSpecs:
    def test_table3_values(self):
        assert spec(CMP).frequency_ghz == 3.40
        assert spec(GPU).memory_bw_gbs == 224.0
        assert spec(PHI).n_cores == 60
        assert spec(FPGA).frequency_ghz == 0.40

    def test_table6_values(self):
        assert spec(CMP).tdp_watts == 80.0
        assert spec(GPU).cost_dollars == 399.0
        assert spec(PHI).cost_dollars == 2437.0
        assert spec(FPGA).tdp_watts == 22.0

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            spec("tpu")

    def test_server_price_adds_accelerator(self):
        assert server_price(CMP) == BASELINE_SERVER_PRICE
        assert server_price(GPU) == BASELINE_SERVER_PRICE + 399.0

    def test_server_watts_adds_tdp(self):
        assert server_watts(CMP) == BASELINE_SERVER_WATTS
        assert server_watts(FPGA) == pytest.approx(BASELINE_SERVER_WATTS + 22.0)


class TestTable5:
    def test_published_values_exact(self):
        assert KERNEL_SPEEDUPS["gmm"][FPGA] == 169.0
        assert KERNEL_SPEEDUPS["gmm"][GPU] == 70.0
        assert KERNEL_SPEEDUPS["dnn"][PHI] == 11.2
        assert KERNEL_SPEEDUPS["stemmer"][FPGA] == 30.0
        assert KERNEL_SPEEDUPS["regex"][GPU] == 48.0
        assert KERNEL_SPEEDUPS["crf"][FPGA] == 7.5
        assert KERNEL_SPEEDUPS["fe"][FPGA] == 34.6
        assert KERNEL_SPEEDUPS["fd"][GPU] == 120.5

    def test_seven_kernels_four_platforms(self):
        assert len(KERNEL_SPEEDUPS) == 7
        for row in KERNEL_SPEEDUPS.values():
            assert set(row) == set(PLATFORMS)
            assert all(value > 0 for value in row.values())

    def test_lookup_errors(self):
        with pytest.raises(KeyError):
            kernel_speedup("sha256", GPU)
        with pytest.raises(KeyError):
            kernel_speedup("gmm", "asic")

    def test_heat_map_rows(self):
        rows = heat_map_rows()
        assert len(rows) == 7
        services = [service for service, _, _ in rows]
        assert services == ["ASR", "ASR", "QA", "QA", "QA", "IMM", "IMM"]


class TestServiceSpeedups:
    def test_dnn_includes_hmm_on_gpu(self):
        # Table 5 footnote: the GPU DNN number is the whole service.
        assert service_speedup(ASR_DNN, GPU) == pytest.approx(54.7)

    def test_dnn_composes_on_fpga(self):
        # FPGA DNN accelerates scoring only; Amdahl on the HMM remainder.
        value = service_speedup(ASR_DNN, FPGA)
        assert value < 54.7
        assert 10 < value < 30

    def test_paper_shape_fpga_wins_three_services(self):
        table = service_speedup_table()
        for service in (ASR_GMM, QA, IMM):
            assert table[service][FPGA] == max(table[service].values()), service
        assert table[ASR_DNN][GPU] == max(table[ASR_DNN].values())

    def test_paper_shape_phi_weak_on_branchy(self):
        # "Phi is generally slower than the pthreaded multicore baseline."
        table = service_speedup_table()
        assert table[QA][PHI] < table[QA][CMP]
        assert table[ASR_GMM][PHI] < table[ASR_GMM][CMP]

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            service_speedup(QA, GPU, {QA: {"stemmer": 0.2, "regex": 0.2, "crf": 0.2}})

    def test_custom_fractions_change_result(self):
        crf_heavy = {QA: {"stemmer": 0.1, "regex": 0.1, "crf": 0.8}}
        assert service_speedup(QA, FPGA, crf_heavy) < service_speedup(QA, FPGA)

    def test_speedup_bounded_by_best_and_worst_component(self):
        for service in SERVICES:
            for platform in PLATFORMS:
                value = service_speedup(service, platform)
                parts = DEFAULT_FRACTIONS[service]
                from repro.platforms.speedups import _component_speedup

                comps = [_component_speedup(c, platform) for c in parts]
                assert min(comps) - 1e-9 <= value <= max(comps) + 1e-9


class TestAcceleratorModel:
    @pytest.fixture()
    def model(self):
        return AcceleratorModel()

    def test_latency_improves_on_accelerators(self, model):
        for service in SERVICES:
            base = model.baseline_latency[service]
            for platform in (GPU, FPGA):
                assert model.latency(service, platform) < base

    def test_latency_table_includes_baseline(self, model):
        table = model.latency_table()
        assert table[ASR_GMM]["baseline"] == pytest.approx(4.2)
        assert set(table) == set(SERVICES)

    def test_fig14_headline_fpga_asr_gmm(self, model):
        # Paper: FPGA takes ASR (GMM) from 4.2 s to ~0.19 s (~22x).
        latency = model.latency(ASR_GMM, FPGA)
        assert 0.1 < latency < 0.5

    def test_fig16_headline_gpu_asr_dnn(self, model):
        # Paper: GPU gives 13.7x throughput for ASR (DNN).
        value = model.throughput_improvement(ASR_DNN, GPU)
        assert value == pytest.approx(13.7, rel=0.06)

    def test_fig16_headline_fpga_imm(self, model):
        # Paper: FPGA gives 12.6x throughput for IMM.
        value = model.throughput_improvement(IMM, FPGA)
        assert 9 < value < 14

    def test_cmp_subquery_throughput_near_one(self, model):
        # Paper: CMP(sub-query) has "similar throughput" to the baseline.
        for service in SERVICES:
            assert 0.2 < model.throughput_improvement(service, CMP) < 2.0

    def test_fig15_fpga_dominates_energy(self, model):
        table = model.performance_per_watt_table()
        for service in SERVICES:
            best = max(table[service], key=table[service].get)
            assert best == FPGA, service
        # Paper: FPGA exceeds 12x for every service.
        assert all(table[s][FPGA] > 12 for s in SERVICES)

    def test_fig15_gpu_below_baseline_for_qa(self, model):
        # Paper: GPU perf/watt is worse than baseline for QA only.
        table = model.performance_per_watt_table()
        assert table[QA][GPU] < 1.0
        assert table[ASR_DNN][GPU] > 1.0
        assert table[IMM][GPU] > 1.0

    def test_invalid_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            AcceleratorModel(baseline_latency={"QA": -1.0})

    def test_unknown_service_latency(self, model):
        with pytest.raises(KeyError):
            model.latency("OCR", GPU)

    @given(st.floats(0.5, 50.0))
    def test_latency_scales_linearly_with_baseline(self, base):
        model = AcceleratorModel(baseline_latency={"QA": base})
        reference = AcceleratorModel(baseline_latency={"QA": 1.0})
        assert model.latency("QA", GPU) == pytest.approx(
            base * reference.latency("QA", GPU)
        )
