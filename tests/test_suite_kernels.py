"""Tests for the Sirius Suite kernels and the parallel-port helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.suite import (
    KERNEL_CLASSES,
    all_kernels,
    chunk_ranges,
    kernel_by_name,
    map_chunks,
)


class TestKernelRun:
    def test_zero_duration_throughput_is_zero(self):
        """Regression: a zero-second run returned inf items/s, poisoning
        any mean/ratio aggregated over per-run throughputs."""
        from repro.suite import KernelRun

        run = KernelRun(kernel="gmm", seconds=0.0, items=100, checksum=0.0)
        assert run.items_per_second == 0.0

    def test_positive_duration_throughput(self):
        from repro.suite import KernelRun

        run = KernelRun(kernel="gmm", seconds=2.0, items=100, checksum=0.0)
        assert run.items_per_second == pytest.approx(50.0)


class TestParallelHelpers:
    def test_chunks_cover_everything(self):
        ranges = chunk_ranges(10, 3)
        covered = [i for chunk in ranges for i in chunk]
        assert covered == list(range(10))

    def test_more_workers_than_items(self):
        ranges = chunk_ranges(2, 8)
        assert len(ranges) == 2

    def test_zero_items(self):
        assert chunk_ranges(0, 4) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)

    @given(st.integers(0, 200), st.integers(1, 16))
    def test_chunk_partition_property(self, n, workers):
        ranges = chunk_ranges(n, workers)
        covered = [i for chunk in ranges for i in chunk]
        assert covered == list(range(n))
        if ranges:
            sizes = [len(chunk) for chunk in ranges]
            assert max(sizes) - min(sizes) <= 1  # balanced

    def test_map_chunks_sums(self):
        results = map_chunks(lambda xs: sum(xs), list(range(100)), 4)
        assert sum(results) == sum(range(100))

    def test_map_chunks_single_worker(self):
        assert map_chunks(len, [1, 2, 3], 1) == [3]


class TestSuiteRegistry:
    def test_seven_kernels(self):
        kernels = all_kernels()
        assert len(kernels) == 7
        assert [k.name for k in kernels] == [
            "gmm", "dnn", "stemmer", "regex", "crf", "fe", "fd",
        ]

    def test_services_match_table4(self):
        services = {k.name: k.service for k in all_kernels()}
        assert services["gmm"] == services["dnn"] == "ASR"
        assert services["stemmer"] == services["regex"] == services["crf"] == "QA"
        assert services["fe"] == services["fd"] == "IMM"

    def test_kernel_by_name(self):
        assert kernel_by_name("crf").name == "crf"
        with pytest.raises(KeyError):
            kernel_by_name("fpga")

    def test_granularity_documented(self):
        for kernel in all_kernels():
            assert kernel.granularity.startswith("for each")


@pytest.mark.parametrize("kernel_cls", KERNEL_CLASSES, ids=lambda c: c.name)
class TestKernelContracts:
    def test_baseline_and_parallel_agree(self, kernel_cls):
        kernel = kernel_cls()
        inputs = kernel.prepare(0.1)
        base = kernel.run(inputs)
        parallel = kernel.run_parallel(inputs, workers=3)
        assert parallel == pytest.approx(base, rel=1e-9)

    def test_execute_metadata(self, kernel_cls):
        kernel = kernel_cls()
        run = kernel.execute(scale=0.1)
        assert run.kernel == kernel.name
        assert run.items >= 1
        assert run.seconds > 0
        assert run.items_per_second > 0

    def test_scale_grows_items(self, kernel_cls):
        kernel = kernel_cls()
        small = kernel.count_items(kernel.prepare(0.1))
        large = kernel.count_items(kernel.prepare(0.5))
        assert large >= small

    def test_invalid_workers(self, kernel_cls):
        with pytest.raises(ConfigurationError):
            kernel_cls().execute(scale=0.1, workers=0)


class TestCRFKernelStartsCold:
    """A warm lexeme table would time one run's lookups as another's hits."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_run_starts_from_an_empty_lexeme_table(self, workers):
        kernel = kernel_by_name("crf")
        inputs = kernel.prepare(scale=0.0)
        lexemes = inputs.model.feature_map._lexemes
        inputs.model.decode(("Zanzibar",))
        assert "Zanzibar" in lexemes
        kernel.execute(inputs=inputs, workers=workers)
        assert "Zanzibar" not in lexemes
        assert {token for tokens in inputs.sentences for token in tokens} == set(lexemes)
