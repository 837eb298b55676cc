"""Tests for the Sirius Suite kernels and the parallel-port helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.imm import SceneGenerator, Surf, integral_image
from repro.obs.context import use_tracer
from repro.obs.counters import WorkCounters, counters_of, kernel_counters
from repro.obs.trace import Tracer
from repro.suite import (
    KERNEL_CLASSES,
    all_kernels,
    chunk_ranges,
    kernel_by_name,
)
from repro.suite.kernels import FDInputs
from tests.test_asr_models import log_likelihood
from tests.test_suite_process_port import prepare_split


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
        # Equal to float summation order, not bit-equal: GMM and DNN
        # partial sums round differently from one whole-input sum.
        kernel = kernel_cls()
        inputs = prepare_split(kernel, 0.1)
        base = kernel.run(inputs)
        for workers in (2, 3):
            parallel = kernel.run_parallel(inputs, workers=workers)
            assert parallel == pytest.approx(base, rel=1e-9)

    def test_port_runs_on_its_one_backend(self, kernel_cls, monkeypatch):
        import repro.suite.base as base

        used = []

        def recording(name):
            real = getattr(base, name)

            def mapper(fn, items, workers):
                used.append(name)
                return real(fn, items, workers)
            return mapper

        for name in ("map_threads", "map_processes"):
            monkeypatch.setattr(base, name, recording(name))
        kernel = kernel_cls()
        kernel.execute(prepare_split(kernel, 0.1), workers=2)
        assert used == [{"thread": "map_threads", "process": "map_processes"}[kernel.port]]

    def test_execute_metadata(self, kernel_cls):
        kernel = kernel_cls()
        run = kernel.execute(kernel.prepare(0.1))
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
            kernel_cls().execute(kernel_cls().prepare(0.1), workers=0)


class TestCRFKernelStartsCold:
    """A warm lexeme table would time one run's lookups as another's hits."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_run_starts_from_an_empty_lexeme_table(self, workers):
        kernel = kernel_by_name("crf")
        inputs = kernel.prepare(scale=0.0)
        ranges = chunk_ranges(kernel.count_items(inputs), workers)
        chunks = [kernel.subset(inputs, chunk) for chunk in ranges]
        # The port forks, so each chunk warms its own copy of the table;
        # in one process every chunk's run starts from an empty one.
        lexemes = inputs.model.feature_map._lexemes
        for chunk in chunks:
            chunk.model.decode(("Zanzibar",))
            assert "Zanzibar" in lexemes
            kernel.run(chunk)
            assert "Zanzibar" not in lexemes
            assert {token for tokens in chunk.sentences for token in tokens} == set(lexemes)


def traced(call):
    """Spans of ``call()`` run inside one trace."""
    tracer = Tracer(seed=0)
    with use_tracer(tracer):
        with tracer.trace(0, name="test"):
            call()
    return tracer.spans


class TestKernelIsThePipelinesCall:
    """A suite kernel times the function the pipeline's section runs."""

    def test_fd_charges_what_imm_fd_charges(self):
        image = SceneGenerator().query_for(3)
        spans = traced(lambda: Surf().extract(image))
        (section,) = [s for s in spans if s.name == "imm.fd"]
        expected = counters_of(section.attributes)

        kernel = kernel_by_name("fd")
        keypoints = Surf().extract_keypoints(image)
        inputs = FDInputs(integral_image(image.pixels), image, keypoints, Surf())
        actual = kernel_counters(traced(lambda: kernel.execute(inputs=inputs)))["fd"]
        assert actual == expected
        assert actual.items == len(keypoints)
        assert actual.flops == len(keypoints) * 30 * 400  # 400 samples a keypoint

    @pytest.mark.parametrize("workers", [1, 3])
    def test_fd_descriptors_are_surf_describe(self, workers):
        calls = []

        class RecordingSurf(Surf):
            def describe(self, image, keypoints, ii=None):
                descriptors = super().describe(image, keypoints, ii=ii)
                calls.append((keypoints, descriptors))
                return descriptors

        kernel = kernel_by_name("fd")
        inputs = kernel.prepare(0.1)
        inputs.surf = RecordingSurf()
        checksum = kernel.execute(inputs=inputs, workers=workers).checksum
        # Chunks are contiguous; threads may finish them in any order.
        calls.sort(key=lambda call: inputs.keypoints.index(call[0][0]))
        assert [kp for keypoints, _ in calls for kp in keypoints] == inputs.keypoints
        expected = Surf().describe(inputs.image, inputs.keypoints, ii=inputs.ii)
        assert np.vstack([d for _, d in calls]).tobytes() == expected.tobytes()
        assert checksum == pytest.approx(float(np.abs(expected).sum()), rel=1e-12)

    def test_gmm_scores_one_bank_bit_for_bit(self):
        kernel = kernel_by_name("gmm")
        inputs = kernel.prepare(1.0)
        scores = inputs.model.emission_scores(inputs.features)
        for state, gmm in enumerate(inputs.gmms):
            column = np.ascontiguousarray(scores[:, state])
            assert column.tobytes() == log_likelihood(gmm, inputs.features).tobytes()

    def test_gmm_charges_what_its_members_charge(self):
        kernel = kernel_by_name("gmm")
        inputs = kernel.prepare(0.5)
        bank = kernel_counters(traced(lambda: kernel.execute(inputs=inputs)))["gmm"]
        members = WorkCounters()
        for gmm in inputs.gmms:
            (span,) = [s for s in traced(lambda: log_likelihood(gmm, inputs.features))
                       if s.name == "test"]
            members = members + counters_of(span.attributes)
        assert (bank.flops, bank.bytes, bank.items) == (
            members.flops, members.bytes, members.items)
        assert bank.invocations == 1

    def test_gmm_states_stop_at_the_pipelines_state_count(self):
        from repro.asr.acoustic import N_EMISSION_STATES

        kernel = kernel_by_name("gmm")
        assert kernel.count_items(kernel.prepare(4.0)) == N_EMISSION_STATES

