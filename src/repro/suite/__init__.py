"""Sirius Suite: the seven compute-bottleneck kernels of Table 4."""

from repro.suite.base import Kernel, KernelRun
from repro.suite.kernels import (
    CRFKernel,
    DNNKernel,
    FDKernel,
    FEKernel,
    GMMKernel,
    KERNEL_CLASSES,
    RegexKernel,
    StemmerKernel,
    all_kernels,
    kernel_by_name,
)
from repro.suite.parallel import chunk_ranges

__all__ = [
    "CRFKernel",
    "DNNKernel",
    "FDKernel",
    "FEKernel",
    "GMMKernel",
    "KERNEL_CLASSES",
    "Kernel",
    "KernelRun",
    "RegexKernel",
    "StemmerKernel",
    "all_kernels",
    "chunk_ranges",
    "kernel_by_name",
]
