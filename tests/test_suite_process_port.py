"""Tests for the split every kernel port runs on: contiguous subsets.

Note: the CI container may expose a single core, so the port tests (here
and in ``test_suite_kernels.py``) verify correctness (checksum equality
with the baseline), never speedup.
"""

import pytest

from repro.suite import KERNEL_CLASSES, chunk_ranges

#: Scales at which a kernel has at least three work items, for the kernels
#: that have fewer at the scales below: FE has one 64-px tile at every scale
#: up to 0.5 and four at 0.8, DNN two batches up to 0.1, GMM two GMMs at 0.05.
SPLIT_SCALE = {"fe": 0.8, "dnn": 0.2, "gmm": 0.1}


def prepare_split(kernel, scale):
    """Inputs at ``scale`` (or the kernel's split scale, when larger) with at
    least three work items, so every chunk of a two- or three-way split works."""
    inputs = kernel.prepare(max(scale, SPLIT_SCALE.get(kernel.name, 0.0)))
    assert kernel.count_items(inputs) >= 3
    return inputs


@pytest.mark.parametrize("kernel_cls", KERNEL_CLASSES, ids=lambda c: c.name)
class TestSubset:
    def test_subsets_partition_work(self, kernel_cls):
        kernel = kernel_cls()
        inputs = prepare_split(kernel, 0.1)
        total = kernel.count_items(inputs)
        ranges = chunk_ranges(total, 3)
        pieces = [kernel.subset(inputs, chunk) for chunk in ranges]
        assert sum(kernel.count_items(piece) for piece in pieces) == total

    def test_subset_checksums_sum_to_baseline(self, kernel_cls):
        kernel = kernel_cls()
        inputs = prepare_split(kernel, 0.1)
        ranges = chunk_ranges(kernel.count_items(inputs), 3)
        partial = sum(kernel.run(kernel.subset(inputs, chunk)) for chunk in ranges)
        assert partial == pytest.approx(kernel.run(inputs), rel=1e-9)


@pytest.mark.parametrize("kernel_cls", KERNEL_CLASSES, ids=lambda c: c.name)
def test_process_port_matches_baseline(kernel_cls):
    # Every kernel runs on the forked backend, whichever port it names, so
    # a thread-port kernel that stopped being fork-safe shows here.
    kernel = kernel_cls()
    kernel.port = "process"
    inputs = prepare_split(kernel, 0.05)
    baseline = kernel.run(inputs)
    for workers in (2, 3):
        processed = kernel.run_parallel(inputs, workers=workers)
        assert processed == pytest.approx(baseline, rel=1e-9)
