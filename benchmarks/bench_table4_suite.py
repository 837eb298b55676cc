"""Table 4: Sirius Suite — kernels, baselines, input sets, granularity.

Prints the suite inventory (with each kernel's one port: threads or forked
processes) and benchmarks every kernel's single-threaded baseline and its
four-worker port on its representative input set.
"""

import pytest

from repro.analysis import format_table
from repro.suite import KERNEL_CLASSES, all_kernels

#: Bench scale: small enough for quick runs, large enough to be meaningful.
SCALE = 0.25


def test_table4_report(save_report):
    rows = [
        [kernel.service, kernel.name, type(kernel).__name__, kernel.granularity,
         kernel.port]
        for kernel in all_kernels()
    ]
    report = format_table(
        "Table 4: Sirius Suite and granularity of parallelism",
        ["Service", "Benchmark", "Implementation", "Data granularity", "Port"],
        rows,
    )
    save_report("table4_suite", report)
    assert len(rows) == 7


@pytest.mark.parametrize("kernel_cls", KERNEL_CLASSES, ids=lambda c: c.name)
def test_bench_kernel_baseline(benchmark, kernel_cls):
    kernel = kernel_cls()
    inputs = kernel.prepare(SCALE)
    checksum = benchmark(kernel.run, inputs)
    assert checksum == pytest.approx(kernel.run(inputs))


@pytest.mark.parametrize("kernel_cls", KERNEL_CLASSES, ids=lambda c: c.name)
def test_bench_kernel_parallel4(benchmark, kernel_cls):
    kernel = kernel_cls()
    inputs = kernel.prepare(SCALE)
    checksum = benchmark(kernel.run_parallel, inputs, 4)
    assert checksum == pytest.approx(kernel.run(inputs), rel=1e-9)
