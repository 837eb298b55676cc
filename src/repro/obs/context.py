"""Ambient trace context: which tracer (if any) the current thread reports to.

The serving stack has layers that cannot see each other's signatures — the
plan executor, resilience wrappers, fault injectors, and the component
profiler all run inside one service call but share no parameter channel.
This module is that channel: the executor (or its stage hand-off on
another thread) activates a tracer for the duration of a call, and any
layer underneath reaches it through :func:`current_tracer` /
:func:`annotate` without a new argument threading through every
``invoke`` in the repository.

Deliberately dependency-free (stdlib only): :mod:`repro.profiling` and
:mod:`repro.serving.faults` sit below the tracing layer and import this
module without creating a cycle.  The context is thread-local — worker
threads and forked workers re-activate their own tracer (see
``repro.serving.executor.run_handed_off``), which is what keeps span
parentage per-thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

_LOCAL = threading.local()


def current_tracer() -> Optional[Any]:
    """The tracer active on this thread, or ``None`` when not tracing."""
    return getattr(_LOCAL, "tracer", None)


@contextmanager
def use_tracer(tracer: Optional[Any]) -> Iterator[Optional[Any]]:
    """Activate ``tracer`` on this thread for the duration of the block.

    Nests: the previously active tracer (if any) is restored on exit, so a
    traced call inside another traced call keeps both layers honest.
    """
    previous = getattr(_LOCAL, "tracer", None)
    _LOCAL.tracer = tracer
    try:
        yield tracer
    finally:
        _LOCAL.tracer = previous


def annotate(key: str, value: Any, add: bool = False) -> None:
    """Attach ``key=value`` to the innermost open span, if one exists.

    A no-op when no tracer is active or no span is open, so low layers
    (fault injectors, the virtual-latency ledger) can annotate
    unconditionally.  With ``add=True`` numeric values accumulate instead
    of overwriting — used for virtual latency charged in several pieces.
    """
    tracer = current_tracer()
    if tracer is not None:
        tracer.annotate(key, value, add=add)
