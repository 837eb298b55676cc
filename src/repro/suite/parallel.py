"""Chunking helper for the pthread-analog kernel ports.

"Each thread is responsible for a range of data over a fixed number of
iterations ... synchronizing only at the end of the execution"
(Section 4.3.1).  ``chunk_ranges`` is that policy: split the work into
``workers`` contiguous ranges.  ``Kernel.run_parallel`` runs one chunk per
worker on the kernel's port (:mod:`repro.serving.backends`) and joins once.
"""

from __future__ import annotations

from typing import List


def chunk_ranges(n_items: int, workers: int) -> List[range]:
    """Split ``range(n_items)`` into at most ``workers`` contiguous ranges."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, max(n_items, 1))
    base = n_items // workers
    remainder = n_items % workers
    ranges = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < remainder else 0)
        if size == 0:
            continue
        ranges.append(range(start, start + size))
        start += size
    return ranges
