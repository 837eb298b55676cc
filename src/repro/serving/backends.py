"""Execution backends: one registry for every pool in the repository.

The serving executor (:mod:`repro.serving.executor`) and the Sirius Suite
pthread-analog ports (:mod:`repro.suite.parallel`) both need "apply this
callable to these items, possibly concurrently".  Before this module each
grew its own pool code; now both dispatch through a single registry of
named :class:`ExecutionBackend` strategies:

``serial``
    In the calling thread, one item at a time.  The reference backend —
    everything else must produce identical results.
``thread``
    A ``ThreadPoolExecutor``.  Wins when the work releases the GIL (numpy
    kernels) or blocks on I/O; pure-Python work serializes on the GIL.
``process``
    A forked ``multiprocessing`` pool (Linux ``fork`` start method).  The
    callable is *inherited* by the children through fork rather than
    pickled per task, so closures and heavyweight bound state (a trained
    decoder, an indexed QA engine) cost nothing to ship; only items and
    results cross the pipe and must be picklable.

Backends are looked up by name via :func:`get_backend`; custom strategies
(e.g. a remote RPC pool) register with :func:`register_backend`.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError


def default_workers() -> int:
    """Worker count used when a caller does not pin one."""
    return max(os.cpu_count() or 1, 1)


class ExecutionBackend(abc.ABC):
    """One strategy for mapping a callable over items, order-preserving."""

    #: Registry key, e.g. ``"thread"``.
    name: str = ""

    @abc.abstractmethod
    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        workers: Optional[int] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item; results in input order."""

    def resolve_workers(self, n_items: int, workers: Optional[int]) -> int:
        requested = workers if workers is not None else default_workers()
        if requested < 1:
            raise ConfigurationError("workers must be >= 1")
        return min(requested, max(n_items, 1))

    def __repr__(self) -> str:
        return f"<ExecutionBackend {self.name}>"


class SerialBackend(ExecutionBackend):
    """The in-line reference backend (no concurrency, no pools)."""

    name = "serial"

    def map(self, fn, items, workers=None):
        self.resolve_workers(len(items), workers)  # validate even when unused
        return [fn(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """GIL-sharing thread pool; best for numpy-heavy or blocking work."""

    name = "thread"

    def map(self, fn, items, workers=None):
        items = list(items)
        n_workers = self.resolve_workers(len(items), workers)
        if len(items) <= 1 or n_workers == 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [future.result() for future in futures]


#: Callable inherited by forked workers; set only for the duration of one
#: :meth:`ProcessBackend.map` call (the parent forks *after* assignment, so
#: children see it without any pickling).
_FORK_FN: Optional[Callable[[Any], Any]] = None


def _call_fork_fn(item):
    """Module-level trampoline run inside forked workers (picklable)."""
    return _FORK_FN(item)


class ProcessBackend(ExecutionBackend):
    """Forked process pool — true multicore, no GIL.

    Uses the ``fork`` start method so the callable and everything it closes
    over (trained models, indexes) are shared copy-on-write with the
    children instead of being re-pickled per task.  Items and results still
    cross process boundaries and must be picklable.
    """

    name = "process"

    def map(self, fn, items, workers=None):
        global _FORK_FN
        items = list(items)
        n_workers = self.resolve_workers(len(items), workers)
        if len(items) <= 1 or n_workers == 1:
            return [fn(item) for item in items]
        context = multiprocessing.get_context("fork")
        previous = _FORK_FN
        _FORK_FN = fn
        try:
            with context.Pool(processes=n_workers) as pool:
                return pool.map(_call_fork_fn, items)
        finally:
            _FORK_FN = previous


_REGISTRY: Dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add (or replace) a backend under ``backend.name``."""
    if not backend.name:
        raise ConfigurationError("backend must define a non-empty name")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    """Registry lookup; raises :class:`ConfigurationError` for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None


register_backend(SerialBackend())
register_backend(ThreadBackend())
register_backend(ProcessBackend())
