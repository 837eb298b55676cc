"""Run the Sirius Suite kernels and print a Table-4/5-style summary.

For each of the seven kernels: the single-threaded baseline time, its
pthread-analog port (four threads or four forked processes, whichever the
kernel's ``port`` names), and the modeled accelerator latencies from the
calibrated Table 5 speedups.

Run with::

    python examples/suite_benchmarks.py [--scale 0.25] [--workers 4]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import format_table
from repro.platforms import KERNEL_SPEEDUPS, PLATFORMS
from repro.suite import all_kernels


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="input-set scale factor")
    parser.add_argument("--workers", type=int, default=4,
                        help="workers of each kernel's port")
    args = parser.parse_args()

    rows = []
    for kernel in all_kernels():
        inputs = kernel.prepare(args.scale)
        base = kernel.execute(inputs=inputs)
        parallel = kernel.execute(inputs=inputs, workers=args.workers)
        modeled = {
            platform: base.seconds / KERNEL_SPEEDUPS[kernel.name][platform]
            for platform in PLATFORMS
        }
        rows.append(
            [
                kernel.service, kernel.name, base.items, kernel.port,
                f"{base.seconds * 1000:.1f}",
                f"{parallel.seconds * 1000:.1f}",
                *[f"{modeled[p] * 1000:.2f}" for p in PLATFORMS],
            ]
        )

    print(format_table(
        f"Sirius Suite (scale={args.scale}, workers={args.workers}) — "
        "measured baseline/port plus modeled accelerator latencies (ms)",
        ["Service", "Kernel", "Items", "Port", "Baseline",
         f"{args.workers}-worker port",
         *[f"model:{p}" for p in PLATFORMS]],
        rows,
    ))


if __name__ == "__main__":
    main()
