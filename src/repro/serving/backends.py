"""The two ways this repository maps a callable over items concurrently.

:func:`map_processes`
    A forked ``multiprocessing`` pool (Linux ``fork`` start method).  The
    callable is *inherited* by the children through fork rather than
    pickled per task, so closures and heavyweight bound state (a trained
    decoder, an indexed QA engine) cost nothing to ship; only items and
    results cross the pipe and must be picklable.  Whole queries fan out
    here (:meth:`repro.serving.executor.PlanExecutor.run_all`,
    :meth:`repro.serving.cluster.fleet.Cluster.run_all`), as do the Sirius
    Suite ports of the pure-Python kernels.
:func:`map_threads`
    A ``ThreadPoolExecutor``, for the Sirius Suite ports whose numpy work
    releases the GIL (:mod:`repro.suite.kernels`).

Both preserve input order and run in line, in the calling thread, at one
worker — the serial reference every fan-out must reproduce.  Which one a
surface uses is fixed by measurement (EXPERIMENTS.md, "Multicore, measured"),
not by a flag.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import ConfigurationError


def default_workers() -> int:
    """Worker count used when a caller does not pin one."""
    return max(os.cpu_count() or 1, 1)


def _pool_size(n_items: int, workers: int) -> int:
    """``workers`` checked (>= 1) and capped at the number of items."""
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    return min(workers, max(n_items, 1))


def map_threads(
    fn: Callable[[Any], Any], items: Sequence[Any], workers: int
) -> List[Any]:
    """``[fn(item) for item in items]`` on a thread pool of ``workers``."""
    items = list(items)
    n_workers = _pool_size(len(items), workers)
    if n_workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]


#: Callable inherited by forked workers; set only for the duration of one
#: :func:`map_processes` call (the parent forks *after* assignment, so
#: children see it without any pickling).
_FORK_FN: Optional[Callable[[Any], Any]] = None


def _call_fork_fn(item):
    """Module-level trampoline run inside forked workers (picklable)."""
    return _FORK_FN(item)


def map_processes(
    fn: Callable[[Any], Any], items: Sequence[Any], workers: int
) -> List[Any]:
    """``[fn(item) for item in items]`` on a forked pool of ``workers``.

    The fork start method shares ``fn`` and everything it closes over
    copy-on-write with the children; state ``fn`` mutates in a child (a
    breaker, a call log, a metrics store) stays in that child.
    """
    global _FORK_FN
    items = list(items)
    n_workers = _pool_size(len(items), workers)
    if n_workers == 1:
        return [fn(item) for item in items]
    context = multiprocessing.get_context("fork")
    previous = _FORK_FN
    _FORK_FN = fn
    try:
        with context.Pool(processes=n_workers) as pool:
            return pool.map(_call_fork_fn, items)
    finally:
        _FORK_FN = previous
