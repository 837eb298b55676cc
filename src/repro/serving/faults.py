"""Deterministic fault injection for the serving layer.

Chaos testing is only useful when a failure scenario can be *replayed*: a
flaky overlap of timeouts and retries that cannot be reproduced cannot be
debugged or regression-tested.  This module therefore makes every injected
fault a pure function of ``(seed, service, ordinal, attempt)``:

- ``ordinal`` is the query's position in its ``run_all`` stream (stamped
  onto every :class:`~repro.serving.service.ServiceRequest` by the
  executor), so the *same queries* fail in the *same way* whichever
  execution backend — serial, thread pool or forked processes — happens
  to run them, in whatever order;
- ``attempt`` is the retry attempt number (stamped by
  :class:`~repro.serving.resilience.ResilientService`), so a rule can fail
  the first attempt and let the retry succeed.

A :class:`FaultPlan` maps service names to ordered :class:`FaultRule`
tuples.  Rules express the four failure shapes the chaos suite exercises:
injected latency spikes (charged to a *virtual* clock so tests stay fast
and deadlines stay deterministic), coded error raises, payload corruption,
and flapping/outage windows keyed by ordinal.

The virtual-latency ledger lives here too: a thread-local accumulator that
:func:`charge_virtual_seconds` adds to and whoever sits directly above the
faulty call (:class:`~repro.serving.resilience.ResilientService` per
attempt, or the stage bracket :func:`repro.serving.executor.run_stage`
that every service call runs through) drains into its latency accounting.  Virtual seconds flow
into deadlines, ``service_seconds``, and ``wall_seconds`` exactly like real
ones — without anyone actually sleeping.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, InjectedFaultError
from repro.obs.context import annotate
from repro.serving.service import Service, ServiceRequest

#: Fault kinds a :class:`FaultRule` may carry.
LATENCY = "latency"    #: charge ``seconds`` of virtual latency, then serve normally
ERROR = "error"        #: raise :class:`~repro.errors.InjectedFaultError`
CORRUPT = "corrupt"    #: serve, then wrap the payload in :class:`CorruptPayload`
FLAP = "flap"          #: periodic outage: fail ``on`` of every ``on+off`` ordinals
OUTAGE = "outage"      #: one contiguous outage: fail ordinals in ``[start, stop)``

FAULT_KINDS = (LATENCY, ERROR, CORRUPT, FLAP, OUTAGE)


# -- virtual-latency ledger -------------------------------------------------------


class _VirtualLedger(threading.local):
    """Per-thread accumulator of injected (not slept) latency seconds."""

    def __init__(self):
        self.charged = 0.0


_LEDGER = _VirtualLedger()


def charge_virtual_seconds(seconds: float) -> None:
    """Add injected latency to the calling thread's ledger."""
    if seconds < 0:
        raise ConfigurationError("virtual latency must be >= 0")
    _LEDGER.charged += seconds
    # Virtual seconds are seed-deterministic, so they may live in span
    # attributes (unlike measured wall times); accumulate on the innermost
    # open span so attempt and stage spans both see their share.
    if seconds > 0:
        annotate("virtual_seconds", seconds, add=True)


def drain_virtual_seconds() -> float:
    """Return and reset the calling thread's charged virtual latency."""
    value = _LEDGER.charged
    _LEDGER.charged = 0.0
    return value


# -- fault plans ------------------------------------------------------------------


class CorruptPayload:
    """Marker wrapper for a payload garbled in transit.

    :class:`~repro.serving.resilience.ResilientService` detects the
    ``__sirius_corrupt__`` marker and classifies the call as failed (so the
    corruption is retried, then degraded); an unguarded pipeline would crash
    on it, which is exactly the hazard the resilience layer removes.
    """

    __sirius_corrupt__ = True

    def __init__(self, original: Any):
        self.original = original

    def __repr__(self) -> str:
        return f"<CorruptPayload {self.original!r}>"


@dataclass(frozen=True)
class FaultRule:
    """One failure behaviour for one service.

    ``rate`` applies to the probabilistic kinds (``latency`` / ``error`` /
    ``corrupt``): each ``(ordinal, attempt)`` draws an independent seeded
    coin.  ``flap``/``outage`` are deterministic windows over ordinals and
    ignore ``rate``.  ``max_attempt`` (when set) stops injecting from that
    attempt on, letting retries recover — the retry-path lever.
    """

    kind: str
    rate: float = 1.0            #: per-call trigger probability (latency/error/corrupt)
    seconds: float = 0.0         #: virtual latency charged by ``latency`` faults
    code: str = ""               #: error code override for ``error``/``flap``/``outage``
    on: int = 0                  #: ``flap``: failing ordinals per period
    off: int = 0                 #: ``flap``: healthy ordinals per period
    start: int = 0               #: ``outage``: first failing ordinal
    stop: int = 0                #: ``outage``: first healthy ordinal again
    max_attempt: Optional[int] = None  #: inject only while ``attempt < max_attempt``

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("fault rate must be in [0, 1]")
        if self.seconds < 0:
            raise ConfigurationError("fault latency must be >= 0")
        if self.kind == LATENCY and self.seconds == 0:
            raise ConfigurationError("latency fault needs seconds > 0")
        if self.kind == FLAP and (self.on < 1 or self.off < 0):
            raise ConfigurationError("flap fault needs on >= 1 and off >= 0")
        if self.kind == OUTAGE and self.stop <= self.start:
            raise ConfigurationError("outage fault needs stop > start")
        if self.max_attempt is not None and self.max_attempt < 1:
            raise ConfigurationError("max_attempt must be >= 1 when set")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable assignment of faults to service calls.

    ``rules`` maps service names (``"asr"``/``"classify"``/``"qa"``/``"imm"``
    or any custom service) to an ordered tuple of rules; the first rule that
    triggers for a call wins.  :meth:`fault_for` is a pure function — two
    plans with equal seed and rules agree on every decision, in every
    process, under every interleaving.
    """

    seed: int = 0
    rules: Mapping[str, Tuple[FaultRule, ...]] = field(default_factory=dict)

    def rules_for(self, service: str) -> Tuple[FaultRule, ...]:
        return tuple(self.rules.get(service, ()))

    def fault_for(
        self, service: str, ordinal: int, attempt: int
    ) -> Optional[FaultRule]:
        """The rule (if any) that fires for this exact call, deterministically."""
        for index, rule in enumerate(self.rules_for(service)):
            if rule.max_attempt is not None and attempt >= rule.max_attempt:
                continue
            if rule.kind == FLAP:
                if ordinal % (rule.on + rule.off) < rule.on:
                    return rule
                continue
            if rule.kind == OUTAGE:
                if rule.start <= ordinal < rule.stop:
                    return rule
                continue
            if rule.rate >= 1.0:
                return rule
            if rule.rate <= 0.0:
                continue
            # Seeded per-call coin: random.Random seeds strings via sha512,
            # so the draw is stable across processes and PYTHONHASHSEED.
            rng = random.Random(f"{self.seed}:{service}:{ordinal}:{attempt}:{index}")
            if rng.random() < rule.rate:
                return rule
        return None


class FaultInjector(Service):
    """Service wrapper that injects the plan's faults ahead of the real call.

    Stateless by design: the decision for every call comes from
    :meth:`FaultPlan.fault_for`, so wrapping the same services with the same
    plan twice replays the same failures.  Meant to sit *under* a
    :class:`~repro.serving.resilience.ResilientService` (corrupted payloads
    are detected there); an unguarded injector demonstrates exactly the
    crashes the resilience layer exists to absorb.
    """

    def __init__(self, inner: Service, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.name = inner.name
        self.label = inner.label

    def warmup(self) -> None:
        self.inner.warmup()

    def invoke(self, request: ServiceRequest):
        rule = self.plan.fault_for(self.name, request.ordinal, request.attempt)
        if rule is None:
            return self.inner.invoke(request)
        annotate("fault.kind", rule.kind)
        if rule.code:
            annotate("fault.code", rule.code)
        if rule.kind == LATENCY:
            charge_virtual_seconds(rule.seconds)
            return self.inner.invoke(request)
        if rule.kind == CORRUPT:
            return CorruptPayload(self.inner.invoke(request))
        raise InjectedFaultError(
            f"injected {rule.kind} fault in {self.name!r} "
            f"(ordinal={request.ordinal}, attempt={request.attempt})",
            service=self.name,
            code=rule.code,
        )

    def __repr__(self) -> str:
        return f"<FaultInjector {self.name} seed={self.plan.seed}>"


def default_chaos_plan(seed: int) -> FaultPlan:
    """The canonical mixed-failure plan behind ``repro serve-bench --chaos``.

    Exercises every degradation path: QA sees latency spikes past its
    deadline, first-attempt errors that retries absorb, and occasional
    corruption; IMM flaps periodically (degrading VIQ queries to VQ and
    rattling its circuit breaker); ASR — the fatal service — suffers one
    short outage whose queries fail outright, plus rare transient errors.
    """
    return FaultPlan(
        seed=seed,
        rules={
            "asr": (
                FaultRule(kind=OUTAGE, start=5, stop=6),
                FaultRule(kind=ERROR, rate=0.06, max_attempt=1),
            ),
            "qa": (
                FaultRule(kind=LATENCY, rate=0.25, seconds=3.0),
                FaultRule(kind=ERROR, rate=0.20, max_attempt=1),
                FaultRule(kind=CORRUPT, rate=0.10, max_attempt=1),
            ),
            "imm": (
                FaultRule(kind=FLAP, on=2, off=3),
            ),
        },
    )
