"""Chunking helpers for the pthread-analog kernel ports.

"Each thread is responsible for a range of data over a fixed number of
iterations ... synchronizing only at the end of the execution"
(Section 4.3.1).  ``map_chunks`` reproduces exactly that: split the work into
``workers`` contiguous ranges, run each concurrently, join once.

The pools themselves live in the shared execution-backend registry
(:mod:`repro.serving.backends`); this module only contributes the Table 4
chunking policy (``Kernel.run_parallel`` and ``run_parallel_processes``
chunk with it too).
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

from repro.serving.backends import get_backend

T = TypeVar("T")
R = TypeVar("R")


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


def map_chunks(
    work: Callable[[Sequence[T]], R],
    items: Sequence[T],
    workers: int,
) -> List[R]:
    """Apply ``work`` to contiguous chunks of ``items`` on the thread backend."""
    ranges = chunk_ranges(len(items), workers)
    if len(ranges) <= 1:
        return [work(items)]
    chunks = [items[chunk.start : chunk.stop] for chunk in ranges]
    return get_backend("thread").map(work, chunks, workers=len(chunks))
