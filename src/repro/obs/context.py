"""Ambient trace context: which tracer (if any) the current thread reports to.

The serving stack has layers that cannot see each other's signatures — the
plan executor, resilience wrappers, fault injectors, and the algorithmic
components' sections all run inside one service call but share no
parameter channel.  This module is that channel: the executor (or its stage
hand-off on another thread) activates a tracer for the duration of a call,
and any layer underneath reaches it through :func:`current_tracer` /
:func:`annotate` / :func:`section` without a new argument threading through
every ``invoke`` in the repository.

Depends on nothing above :mod:`repro.obs.trace`, so the algorithmic
packages (``repro.asr`` / ``repro.qa`` / ``repro.imm``) and
:mod:`repro.serving.faults` sit below the tracing layer and import this
module without creating a cycle.  The context is thread-local — worker
threads and forked workers re-activate their own tracer (see
``repro.serving.executor.run_handed_off``), which is what keeps span
parentage per-thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Iterator, Optional

from repro.obs.trace import SECTION

_LOCAL = threading.local()
_UNTRACED = nullcontext()


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


def section(name: str) -> ContextManager[None]:
    """Time one algorithmic component as a ``section`` span.

    The component breakdowns of Figures 8b and 9 are projections of these
    spans (:func:`repro.obs.critical_path.section_seconds`).  When this
    thread's tracer has an open span, the block runs inside a child span of
    kind ``section`` that closes however the block exits — never marked
    failed: a stage dying inside a section still exports it ``ok``, and the
    stage's own span carries the error.  Otherwise the block runs bare; no
    clock is read.
    """
    tracer = current_tracer()
    if tracer is None or tracer.current_span() is None:
        return _UNTRACED
    return _section_span(tracer, name)


@contextmanager
def _section_span(tracer: Any, name: str) -> Iterator[None]:
    span = tracer.begin_span(name, kind=SECTION)
    try:
        yield
    finally:
        tracer.end_span(span)
