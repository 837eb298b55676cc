"""Tests for queueing, TCO, scalability, and the design-space search."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.datacenter import (
    CANDIDATE_SETS,
    DatacenterDesigner,
    EFFICIENCY,
    LATENCY,
    MM1Queue,
    ScalabilityGap,
    TCO,
    TCOModel,
    TCOParameters,
    improvement_curve,
    paper_gap,
    throughput_improvement_at_load,
)
from repro.errors import ConfigurationError, DesignError
from repro.platforms import CMP, FPGA, GPU, PHI, AcceleratorModel


class TestMM1:
    def test_response_time_formula(self):
        queue = MM1Queue(service_time=0.5)  # mu = 2
        assert queue.response_time(1.0) == pytest.approx(1.0)  # 1/(2-1)

    def test_saturation_is_infinite(self):
        queue = MM1Queue(service_time=1.0)
        assert math.isinf(queue.response_time(1.0))
        assert math.isinf(queue.response_time(2.0))

    def test_zero_load_equals_service_time(self):
        queue = MM1Queue(service_time=0.25)
        assert queue.response_time(0.0) == pytest.approx(0.25)

    def test_littles_law(self):
        queue = MM1Queue(service_time=0.5)
        rho = 0.6
        arrival = rho / 0.5
        expected_in_system = rho / (1 - rho)
        assert queue.queue_length(arrival) == pytest.approx(expected_in_system)

    def test_max_load_inverts_response_time(self):
        queue = MM1Queue(service_time=0.2)
        target = queue.response_time(2.0)
        assert queue.max_load_for_response_time(target) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MM1Queue(service_time=0.0)
        with pytest.raises(ConfigurationError):
            MM1Queue(service_time=1.0).response_time(-1.0)

    @given(st.floats(0.05, 0.95), st.floats(1.5, 100.0))
    def test_improvement_decreases_with_load(self, load, speedup):
        low = throughput_improvement_at_load(speedup, max(load - 0.04, 0.01))
        high = throughput_improvement_at_load(speedup, min(load + 0.04, 0.99))
        assert low >= high - 1e-9

    def test_fig17_converges_to_fig16_at_high_load(self):
        speedup = 54.7
        at_high_load = throughput_improvement_at_load(speedup, 0.999)
        assert at_high_load == pytest.approx(speedup / 4.0, rel=0.01)

    def test_fig17_low_load_gain_is_large(self):
        # "the lower the server load, the bigger impact latency reduction
        # would have on throughput improvement"
        curve = improvement_curve(54.7, loads=(0.1, 0.5, 0.9))
        assert curve[0] > curve[1] > curve[2]
        assert curve[0] > 5 * curve[2] / 2

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            throughput_improvement_at_load(10.0, 0.0)
        with pytest.raises(ConfigurationError):
            throughput_improvement_at_load(-1.0, 0.5)


class TestTCO:
    @pytest.fixture()
    def tco(self):
        return TCOModel()

    def test_breakdown_components_positive(self, tco):
        breakdown = tco.platform_breakdown(CMP)
        assert breakdown.dc_capex > 0
        assert breakdown.energy > 0
        assert breakdown.total == pytest.approx(
            breakdown.dc_capex + breakdown.dc_opex + breakdown.server_capex
            + breakdown.server_opex + breakdown.energy
        )

    def test_server_capex_dominates_baseline(self, tco):
        # At Table 7 prices, the 3-year server amortization is the biggest item.
        breakdown = tco.platform_breakdown(CMP)
        assert breakdown.server_capex == max(
            breakdown.dc_capex, breakdown.dc_opex,
            breakdown.server_capex, breakdown.server_opex, breakdown.energy,
        )

    def test_cost_ratios_ordering(self, tco):
        # GPU is the cheapest accelerator to add; Phi the most expensive.
        assert 1 < tco.cost_ratio(GPU) < tco.cost_ratio(FPGA) < tco.cost_ratio(PHI)

    def test_fig18_gpu_asr_dnn_over_8x(self, tco):
        model = AcceleratorModel()
        reduction = tco.tco_reduction(GPU, model.throughput_improvement("ASR (DNN)", GPU))
        assert reduction > 8.0

    def test_fig18_fpga_imm_over_4x(self, tco):
        model = AcceleratorModel()
        reduction = tco.tco_reduction(FPGA, model.throughput_improvement("IMM", FPGA))
        assert reduction > 4.0

    def test_normalized_tco_validation(self, tco):
        with pytest.raises(ConfigurationError):
            tco.normalized_tco(GPU, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            TCOParameters(average_utilization=0.0)
        with pytest.raises(ConfigurationError):
            TCOParameters(pue=0.9)

    def test_custom_electricity_price_raises_energy_share(self):
        cheap = TCOModel(TCOParameters(electricity_cost_per_kwh=0.01))
        pricey = TCOModel(TCOParameters(electricity_cost_per_kwh=0.50))
        assert pricey.platform_breakdown(CMP).energy > cheap.platform_breakdown(CMP).energy


class TestScalabilityGap:
    def test_paper_gap_is_165x(self):
        assert paper_gap().gap == pytest.approx(165.0, rel=0.01)

    def test_machines_ratio(self):
        gap = ScalabilityGap(web_search_latency=0.1, ipa_latency=10.0)
        assert gap.gap == pytest.approx(100.0)
        assert gap.machines_ratio(1.0) == pytest.approx(101.0)
        assert gap.machines_ratio(0.0) == pytest.approx(1.0)

    def test_bridged_gap(self):
        gap = paper_gap()
        assert gap.bridged_gap(10.0) == pytest.approx(16.5, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScalabilityGap(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            paper_gap().bridged_gap(0.0)
        with pytest.raises(ConfigurationError):
            paper_gap().machines_ratio(-1.0)


class TestDesigner:
    @pytest.fixture(scope="class")
    def designer(self):
        return DatacenterDesigner()

    def test_fig19_point_fields_consistent(self, designer):
        point = designer.evaluate("IMM", FPGA)
        assert point.latency_improvement == pytest.approx(
            designer.model.baseline_latency["IMM"] / point.latency
        )
        assert point.tco_improvement == pytest.approx(1.0 / point.normalized_tco)

    def test_all_points_counts(self, designer):
        assert len(designer.all_points()) == 4 * 4

    def test_table8_latency_row(self, designer):
        table = designer.homogeneous_table()
        assert table[LATENCY]["with FPGA"] == FPGA
        assert table[LATENCY]["without FPGA"] == GPU
        assert table[LATENCY]["without FPGA/GPU"] == CMP

    def test_table8_efficiency_row(self, designer):
        table = designer.homogeneous_table()
        assert table[EFFICIENCY]["with FPGA"] == FPGA

    def test_table8_tco_without_fpga_is_gpu(self, designer):
        table = designer.homogeneous_table()
        assert table[TCO]["without FPGA"] == GPU
        assert table[TCO]["without FPGA/GPU"] == CMP

    def test_table9_gpu_wins_asr_dnn_latency(self, designer):
        table = designer.heterogeneous_table()
        entry = table[LATENCY]["with FPGA"]["ASR (DNN)"]
        assert entry["platform"] == GPU
        # Paper: 3.6x better than the FPGA homogeneous design.
        assert entry["gain"] == pytest.approx(3.6, rel=0.25)

    def test_table9_fpga_wins_qa_imm_tco(self, designer):
        table = designer.heterogeneous_table()
        assert table[TCO]["with FPGA"]["QA"]["platform"] == FPGA
        assert table[TCO]["with FPGA"]["IMM"]["platform"] == FPGA

    def test_fig20_average_latency_improvements(self, designer):
        gpu = designer.average_query_latency_improvement(GPU)
        fpga = designer.average_query_latency_improvement(FPGA)
        # Paper: ~10x GPU, ~16x FPGA; FPGA must beat GPU.
        assert gpu == pytest.approx(10.0, rel=0.25)
        assert fpga > gpu

    def test_fig21_bridging(self, designer):
        gap = paper_gap()
        gpu_residual = gap.bridged_gap(designer.average_query_latency_improvement(GPU))
        fpga_residual = gap.bridged_gap(designer.average_query_latency_improvement(FPGA))
        assert 10 < gpu_residual < 25
        assert 5 < fpga_residual < gpu_residual

    def test_query_level_vc_uses_asr_only(self, designer):
        vc = designer.query_latency("VC", GPU)
        assert vc == pytest.approx(designer.model.latency("ASR (GMM)", GPU))

    def test_unknown_query_type(self, designer):
        with pytest.raises(DesignError):
            designer.query_latency("VVQ", GPU)

    def test_unknown_objective(self, designer):
        with pytest.raises(DesignError):
            designer.best_platform("QA", "carbon", [GPU])

    def test_latency_constraint_filters(self, designer):
        # Phi violates the CMP sub-query latency constraint for QA;
        # restricting candidates to Phi must fail under a constraint.
        with pytest.raises(DesignError):
            designer.best_platform("QA", TCO, [PHI])

    def test_candidate_sets_cover_paper_columns(self):
        assert set(CANDIDATE_SETS) == {"with FPGA", "without FPGA", "without FPGA/GPU"}


class TestServiceBackedSimulation:
    """The serving-layer mode: arrivals serviced by real Service objects."""

    def test_live_sampler_measures_real_executions(self, sirius_pipeline, input_set):
        from repro.datacenter import live_service_sampler

        calls = []

        def process(query):
            calls.append(query)
            return sirius_pipeline.process(query)

        sample = live_service_sampler(process, input_set.voice_commands[:3], seed=1)
        drawn = [sample() for _ in range(2)]
        assert len(calls) == 2
        assert all(value > 0 for value in drawn)

    def test_simulate_serving_runs_real_queries(self, sirius_pipeline, input_set):
        from repro.datacenter import simulate_serving

        result = simulate_serving(
            sirius_pipeline.process,
            input_set.voice_commands[:4],
            arrival_rate=0.5,
            n_queries=12,
            seed=3,
        )
        assert result.replay.n_admitted > 0
        assert result.replay.mean_response > 0
        assert result.replay.mean_response >= result.replay.mean_wait
        # Every arrival is classed; the fault-free pipeline serves them all.
        assert (result.n_ok, result.n_degraded, result.n_failed) == (12, 0, 0)

    def test_raised_error_counts_as_a_failed_arrival(self):
        from repro.core import QueryType, SiriusResponse
        from repro.datacenter import simulate_serving
        from repro.errors import ServiceError

        calls = iter(range(12))

        def process(query):
            if next(calls) % 3 == 0:
                raise ServiceError("down")
            return SiriusResponse(query_type=QueryType.VOICE_COMMAND, transcript=query)

        result = simulate_serving(process, ["q"], arrival_rate=0.5, n_queries=12)
        assert (result.n_ok, result.n_degraded, result.n_failed) == (8, 0, 4)
        assert result.availability == pytest.approx(8 / 12)

    def test_empty_query_pool_rejected(self):
        from repro.datacenter import live_service_sampler

        with pytest.raises(ConfigurationError):
            live_service_sampler(lambda q: q, [])

    def test_simulate_serving_degraded_mode(self, sirius_pipeline, input_set):
        """The degraded-mode arrival path: arrivals served by a resilient
        executor under fault injection report availability and goodput."""
        from repro.datacenter import ServingSimulationResult, simulate_serving
        from repro.serving import (
            default_chaos_plan,
            default_policies,
            resilient_executor,
        )

        executor = resilient_executor(
            sirius_pipeline.serving, default_policies(seed=11),
            default_chaos_plan(11),
        )
        executor.warmup()
        counter = {"next": 0}

        def process(query):
            ordinal = counter["next"]
            counter["next"] += 1
            return executor.run(query, ordinal=ordinal, on_error="degrade")

        result = simulate_serving(
            process,
            input_set.voice_queries[:4],
            arrival_rate=0.5,
            n_queries=20,
            seed=3,
        )
        assert isinstance(result, ServingSimulationResult)
        assert result.n_arrivals == 20
        assert result.n_ok + result.n_degraded + result.n_failed == 20
        assert 0.0 <= result.goodput <= result.availability <= 1.0
        # The default chaos plan always bites somewhere in 20 arrivals.
        assert result.n_degraded + result.n_failed > 0
        assert result.replay.mean_response > 0
