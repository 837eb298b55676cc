"""Tests for the analysis package: breakdowns, bottlenecks, variability."""

import pytest

from repro.analysis import (
    CYCLE_ACCOUNTS,
    Distribution,
    account,
    bottleneck_rows,
    format_bar,
    format_matrix,
    format_table,
    ipc_table,
    kernel_coverage,
    latency_hits_correlation,
    max_stall_free_speedup,
    measured_service_fractions,
    pearson,
    run_variability_study,
    service_distributions,
    split_by_service,
)
from repro.analysis.variability import QAQueryRecord
from repro.core import VOICE_QUERIES
from repro.errors import ConfigurationError
from repro.obs.context import section, use_tracer
from repro.obs.critical_path import section_seconds
from repro.obs.trace import Tracer
from repro.qa import QAEngine


class TestBottleneckModel:
    def test_all_seven_kernels_modeled(self):
        assert len(CYCLE_ACCOUNTS) == 7

    def test_fig10_dnn_and_regex_efficient(self):
        # "DNN and Regex execute relatively efficiently on Xeon cores."
        ipcs = ipc_table()
        branchy = min(ipcs["stemmer"], ipcs["crf"], ipcs["gmm"])
        assert ipcs["dnn"] > branchy
        assert ipcs["regex"] > branchy

    def test_fig10_stall_free_bound_about_3x(self):
        bound = max_stall_free_speedup()
        assert 2.5 <= bound <= 3.5

    def test_fractions_validated(self):
        from repro.analysis.bottleneck import CycleAccount

        with pytest.raises(ConfigurationError):
            CycleAccount("bad", 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            CycleAccount("bad", 1.2, -0.2, 0.0, 0.0)

    def test_ipc_bounded_by_issue_width(self):
        assert all(0 < ipc <= 4.0 for ipc in ipc_table().values())

    def test_account_lookup(self):
        assert account("gmm").kernel == "gmm"
        with pytest.raises(KeyError):
            account("simd")

    def test_rows_ordered_like_table4(self):
        names = [row.kernel for row in bottleneck_rows()]
        assert names == ["gmm", "dnn", "stemmer", "regex", "crf", "fe", "fd"]


class TestBreakdown:
    def test_split_by_service(self):
        split = split_by_service(
            {"asr.scoring": 2.0, "qa.crf": 1.0, "imm.fe": 0.5, "qa.regex": 0.5}
        )
        assert split["ASR"].seconds == {"asr.scoring": 2.0}
        assert split["QA"].total == pytest.approx(1.5)
        assert split["IMM"].fraction("imm.fe") == pytest.approx(1.0)

    def test_kernel_coverage(self):
        seconds = {"asr.scoring": 9.0, "asr.search": 1.0}
        assert kernel_coverage(seconds) == pytest.approx(0.9)

    def test_kernel_coverage_empty(self):
        assert kernel_coverage({}) == 0.0

    def test_pooled_profile(self):
        # Two queries' traces, pooled by one projection over the forest.
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        for ordinal, sections in enumerate([{"a": 1.0}, {"a": 2.0, "b": 1.0}]):
            with use_tracer(tracer), tracer.trace(ordinal):
                for name, seconds in sections.items():
                    with section(name):
                        now[0] += seconds
        assert section_seconds(tracer.finish()) == {"a": 3.0, "b": 1.0}

    def test_measured_fractions_normalized(self):
        fractions = measured_service_fractions(
            {
                "asr.scoring": 3.0, "asr.search": 1.0,
                "qa.stemmer": 1.0, "qa.regex": 2.0, "qa.crf": 1.0,
                "imm.fe": 3.0, "imm.fd": 1.0,
            }
        )
        for service, parts in fractions.items():
            assert sum(parts.values()) == pytest.approx(1.0), service
        assert fractions["ASR (GMM)"]["gmm"] == pytest.approx(0.75)
        assert fractions["IMM"]["fe"] == pytest.approx(0.75)

    def test_measured_fractions_feed_speedup_model(self):
        from repro.platforms import service_speedup

        fractions = measured_service_fractions(
            {
                "asr.scoring": 3.0, "asr.search": 1.0,
                "qa.stemmer": 1.0, "qa.regex": 1.0, "qa.crf": 1.0,
                "imm.fe": 1.0, "imm.fd": 1.0,
            }
        )
        value = service_speedup("QA", "fpga", fractions)
        assert value > 1.0


class TestVariability:
    def test_distribution_stats(self):
        dist = Distribution((1.0, 2.0, 3.0, 10.0))
        assert dist.mean == pytest.approx(4.0)
        assert dist.minimum == 1.0
        assert dist.maximum == 10.0
        assert dist.spread == pytest.approx(10.0)
        assert dist.percentile(0) == 1.0
        assert dist.percentile(100) == 10.0
        assert 1.0 < dist.percentile(50) < 3.0

    def test_distribution_validation(self):
        with pytest.raises(ConfigurationError):
            Distribution(())
        with pytest.raises(ConfigurationError):
            Distribution((1.0,)).percentile(120)

    def test_pearson_perfect_correlation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [-2, -4, -6]) == pytest.approx(-1.0)

    def test_pearson_constant_input(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_pearson_validation(self):
        with pytest.raises(ConfigurationError):
            pearson([1.0], [2.0])

    def test_fig8c_latency_correlates_with_hits(self):
        """The paper's causal story: more filter hits -> more QA time."""
        engine = QAEngine()
        questions = [question for question, _ in VOICE_QUERIES]
        records = run_variability_study(engine, questions)
        assert len(records) == len(questions)
        correlation = latency_hits_correlation(records)
        assert correlation > 0.5

    def test_service_distributions_from_responses(self, sirius_pipeline, input_set):
        responses = [
            sirius_pipeline.process(query)
            for query in input_set.voice_image_queries[:4]
        ]
        distributions = service_distributions(responses)
        assert {"ASR", "QA", "IMM"} <= set(distributions)

    def test_latency_hits_with_synthetic_records(self):
        records = [
            QAQueryRecord("q1", latency=1.0, filter_hits=10),
            QAQueryRecord("q2", latency=2.0, filter_hits=20),
            QAQueryRecord("q3", latency=4.0, filter_hits=35),
        ]
        assert latency_hits_correlation(records) > 0.9


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("Title", ["a", "bb"], [["x", 1.5], ["yy", 2.25]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "1.50" in text and "2.25" in text

    def test_format_matrix(self):
        text = format_matrix("M", "svc", {"QA": {"gpu": 1.0, "fpga": 2.0}})
        assert "QA" in text and "gpu" in text and "2.00" in text

    def test_format_bar(self):
        assert format_bar(5.0, 10.0, width=10) == "#####"
        assert format_bar(20.0, 10.0, width=10) == "#" * 10
        assert format_bar(1.0, 0.0) == ""
