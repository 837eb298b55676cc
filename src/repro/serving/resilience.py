"""Resilience policies: deadlines, retries, and circuit breakers per service.

The paper's provisioning math (Figs 17-19, Tables 8/9) assumes every
ASR/QA/IMM call completes; production serving must instead meet latency
targets while individual services stall, error, or return garbage — the
"AI tax" of stragglers and partial failure.  This module adds that armour
at the one choke point the serving refactor created: any
:class:`~repro.serving.service.Service` can be wrapped by
:class:`ResilientService` without touching algorithmic code.

Three mechanisms compose, all deterministic under a seed:

- **deadline** — a total per-call budget covering every attempt, backoff
  sleep, and injected virtual latency; overruns raise
  :class:`~repro.errors.DeadlineExceededError` and are never retried
  (elapsed time only grows);
- **bounded retries** — up to ``max_attempts`` tries with exponential
  backoff and seeded jitter (the jitter stream is keyed by
  ``(seed, service, ordinal)``, so replays sleep identically);
- **circuit breaker** — per wrapped service: ``failure_threshold``
  consecutive failures open the circuit, subsequent calls fail fast with
  :class:`~repro.errors.CircuitOpenError` for a cooldown (counted in
  *calls* by default, so chaos runs replay exactly; optionally in wall
  seconds), then a half-open probe decides between recovery and re-opening.

What failures *mean* is decided one layer up: the plan executor degrades a
failed IMM branch (VIQ → VQ) or a failed QA stage (low-confidence fallback
answer) and only lets ASR/classify failures kill the query.  See
``docs/RESILIENCE.md`` for the degradation matrix.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ServiceError,
    SiriusError,
)
from repro.obs.context import current_tracer
from repro.obs.trace import ATTEMPT
from repro.serving.faults import (
    FaultPlan,
    FaultInjector,
    charge_virtual_seconds,
    drain_virtual_seconds,
)
from repro.serving.service import Service, ServiceRequest

#: Circuit-breaker states (:attr:`CircuitBreaker.state`).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    The *raw* schedule is ``min(backoff_base * backoff_factor**i,
    backoff_max)`` for retry ``i`` (0-based) — non-decreasing because
    ``backoff_factor >= 1``.  Jitter scales each delay by a seeded factor in
    ``[1 - jitter, 1 + jitter]``, so delays stay within a provable envelope
    (the property suite locks down exactly these invariants).
    """

    max_attempts: int = 3        #: total tries, including the first (>= 1)
    backoff_base: float = 0.0    #: first retry delay in seconds (0 = no sleeping)
    backoff_factor: float = 2.0  #: growth per retry (>= 1 keeps the schedule monotone)
    backoff_max: float = 1.0     #: per-delay cap in seconds
    jitter: float = 0.0          #: relative jitter amplitude in [0, 1]

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def raw_delay(self, retry_index: int) -> float:
        """Unjittered delay before retry ``retry_index`` (0-based)."""
        return min(self.backoff_base * self.backoff_factor ** retry_index,
                   self.backoff_max)

    def delay(self, retry_index: int, rng: random.Random) -> float:
        """Jittered delay; always within ``raw * [1 - jitter, 1 + jitter]``."""
        raw = self.raw_delay(retry_index)
        if self.jitter == 0.0:
            return raw
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def schedule(self, seed: int = 0, service: str = "", ordinal: int = 0) -> Tuple[float, ...]:
        """The full jittered backoff schedule one call would sleep through."""
        rng = backoff_rng(seed, service, ordinal)
        return tuple(self.delay(i, rng) for i in range(self.max_attempts - 1))


def backoff_rng(seed: int, service: str, ordinal: int) -> random.Random:
    """The seeded jitter stream for one call (string seeds hash via sha512,
    so replays agree across processes and ``PYTHONHASHSEED``)."""
    return random.Random(f"{seed}:{service}:{ordinal}:backoff")


@dataclass(frozen=True)
class BreakerPolicy:
    """Configuration for one service's circuit breaker."""

    failure_threshold: int = 5       #: consecutive failures that open the circuit
    cooldown_calls: int = 8          #: rejected calls before a half-open probe
    cooldown_seconds: Optional[float] = None  #: wall-clock cooldown instead, if set
    recovery_successes: int = 1      #: half-open successes that close the circuit

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.cooldown_calls < 1:
            raise ConfigurationError("cooldown_calls must be >= 1")
        if self.cooldown_seconds is not None and self.cooldown_seconds <= 0:
            raise ConfigurationError("cooldown_seconds must be > 0 when set")
        if self.recovery_successes < 1:
            raise ConfigurationError("recovery_successes must be >= 1")


class CircuitBreaker:
    """Closed → open → half-open breaker keyed to one service.

    Thread-safe; state transitions happen under one lock.  The default
    cooldown is counted in *rejected calls* rather than wall seconds so a
    seeded chaos run transitions at exactly the same points every replay;
    pass ``cooldown_seconds`` (with an injectable ``clock``) for the
    conventional time-based behaviour.
    """

    def __init__(self, policy: BreakerPolicy,
                 clock: Callable[[], float] = time.monotonic):
        self.policy = policy
        self.clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._rejected_in_cooldown = 0
        self._half_open_successes = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether the next call may proceed (may transition open → half-open)."""
        with self._lock:
            if self._state != OPEN:
                return True
            if self.policy.cooldown_seconds is not None:
                cooled = (self.clock() - self._opened_at
                          >= self.policy.cooldown_seconds)
            else:
                cooled = self._rejected_in_cooldown >= self.policy.cooldown_calls
            if cooled:
                self._state = HALF_OPEN
                self._half_open_successes = 0
                return True
            self._rejected_in_cooldown += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._half_open_successes += 1
                if self._half_open_successes >= self.policy.recovery_successes:
                    self._state = CLOSED
            elif self._state == OPEN:
                # A call admitted just before the circuit opened finished
                # fine; leave the open circuit to its cooldown.
                pass

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                self._trip()
            elif (self._state == CLOSED
                  and self._consecutive_failures >= self.policy.failure_threshold):
                self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._rejected_in_cooldown = 0
        self._half_open_successes = 0
        self._opened_at = self.clock()

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.state}>"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything :class:`ResilientService` applies around one service."""

    deadline_seconds: Optional[float] = None  #: total per-call budget (None = none)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: Optional[BreakerPolicy] = None   #: None disables the breaker
    seed: int = 0                             #: jitter stream seed
    detect_corruption: bool = True            #: treat marked payloads as failures

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError("deadline_seconds must be > 0 when set")


@dataclass(frozen=True)
class CallRecord:
    """One resilient call's outcome, appended to :attr:`ResilientService.call_log`."""

    service: str
    ordinal: int
    attempts: int      #: attempts actually executed (0 = rejected by open circuit)
    seconds: float     #: elapsed incl. backoff and virtual latency
    ok: bool
    code: str = ""     #: stable error code when ``ok`` is False


class ResilientService(Service):
    """Deadline + retry + breaker armour around any :class:`Service`.

    Purely a wrapper: ``name``/``label``/``warmup`` delegate to the inner
    service, and a successful first attempt adds two clock reads and a log
    append.  Every terminal failure re-raises as (a subclass of)
    :class:`~repro.errors.ServiceError` carrying a stable ``code``, which is
    what the executor's degradation rules key on.
    """

    def __init__(self, inner: Service, policy: ResiliencePolicy,
                 sleep: Callable[[float], None] = time.sleep):
        self.inner = inner
        self.policy = policy
        self.name = inner.name
        self.label = inner.label
        self._sleep = sleep
        self._breaker = (CircuitBreaker(policy.breaker)
                         if policy.breaker is not None else None)
        self._log_lock = threading.Lock()
        self.call_log: List[CallRecord] = []

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        return self._breaker

    def warmup(self) -> None:
        self.inner.warmup()

    def reset_log(self) -> None:
        with self._log_lock:
            self.call_log.clear()

    # -- the attempt loop ---------------------------------------------------------

    def invoke(self, request: ServiceRequest):
        policy = self.policy
        rng = backoff_rng(policy.seed, self.name, request.ordinal)
        tracer = current_tracer()
        if tracer is not None and tracer.current_span() is None:
            tracer = None  # invoked outside any trace; nothing to nest under
        start = time.perf_counter()
        total_virtual = 0.0
        attempt = 0
        try:
            while True:
                if self._breaker is not None and not self._breaker.allow():
                    rejection = CircuitOpenError(
                        f"service {self.name!r} circuit is open "
                        f"(ordinal={request.ordinal})",
                        service=self.name,
                    )
                    if tracer is not None:
                        # A zero-width attempt span records the fast-fail.
                        span = tracer.begin_span(
                            "attempt", kind=ATTEMPT,
                            attributes={"attempt": attempt, "breaker": OPEN,
                                        "rejected": True, "wasted": True},
                        )
                        tracer.end_span(span, rejection)
                    raise rejection
                breaker_state = (self._breaker.state
                                 if self._breaker is not None else "")
                drain_virtual_seconds()
                span = None
                if tracer is not None:
                    attributes = {"attempt": attempt}
                    if breaker_state:
                        attributes["breaker"] = breaker_state
                    span = tracer.begin_span(
                        "attempt", kind=ATTEMPT, attributes=attributes
                    )
                failure: Optional[SiriusError] = None
                payload = None
                try:
                    payload = self.inner.invoke(replace(request, attempt=attempt))
                except SiriusError as exc:
                    failure = exc
                finally:
                    total_virtual += drain_virtual_seconds()
                attempt += 1
                elapsed = time.perf_counter() - start + total_virtual
                if failure is None and self._corrupted(payload):
                    failure = ServiceError(
                        f"service {self.name!r} returned a corrupted payload "
                        f"(ordinal={request.ordinal})",
                        service=self.name,
                    )
                if failure is None and (policy.deadline_seconds is not None
                                        and elapsed > policy.deadline_seconds):
                    # The answer arrived after the caller's budget: useless.
                    failure = DeadlineExceededError(
                        f"service {self.name!r} exceeded its "
                        f"{policy.deadline_seconds:.3f}s deadline "
                        f"({elapsed:.3f}s elapsed)",
                        service=self.name,
                    )
                if span is not None:
                    if failure is not None:
                        # The attempt's work was thrown away (it will be
                        # retried or the service will fail/degrade); tag it
                        # so the cost ledger can bill wasted joules apart
                        # from served work.
                        span.attributes["wasted"] = True
                    tracer.end_span(span, failure)
                if failure is None:
                    if self._breaker is not None:
                        self._breaker.record_success()
                    self._record(request.ordinal, attempt, elapsed, ok=True)
                    charge_virtual_seconds(total_virtual)
                    if tracer is not None:
                        tracer.annotate("attempts", attempt)
                    return payload
                if self._breaker is not None:
                    self._breaker.record_failure()
                if isinstance(failure, DeadlineExceededError):
                    raise failure  # elapsed only grows; retrying cannot help
                if attempt >= policy.retry.max_attempts:
                    raise failure
                delay = policy.retry.delay(attempt - 1, rng)
                if (policy.deadline_seconds is not None
                        and elapsed + delay >= policy.deadline_seconds):
                    raise DeadlineExceededError(
                        f"service {self.name!r} retry budget exhausted after "
                        f"{attempt} attempt(s) ({elapsed:.3f}s + {delay:.3f}s "
                        f"backoff >= {policy.deadline_seconds:.3f}s deadline)",
                        service=self.name,
                    )
                if delay > 0:
                    self._sleep(delay)
        except SiriusError as exc:
            elapsed = time.perf_counter() - start + total_virtual
            code = getattr(exc, "code", "SIRIUS")
            self._record(request.ordinal, attempt, elapsed, ok=False, code=code)
            # Hand the accumulated virtual latency to the stage bracket
            # above; the success path does the same before returning.
            charge_virtual_seconds(total_virtual)
            if tracer is not None:
                tracer.annotate("attempts", attempt)
            raise

    def _corrupted(self, payload) -> bool:
        if not self.policy.detect_corruption:
            return False
        return payload is None or getattr(payload, "__sirius_corrupt__", False)

    def _record(self, ordinal: int, attempts: int, seconds: float,
                ok: bool, code: str = "") -> None:
        record = CallRecord(service=self.name, ordinal=ordinal,
                            attempts=attempts, seconds=seconds, ok=ok, code=code)
        with self._log_lock:
            self.call_log.append(record)

    def __repr__(self) -> str:
        return f"<ResilientService {self.name}>"


# -- wiring helpers ---------------------------------------------------------------

PolicySpec = Union[ResiliencePolicy, Mapping[str, ResiliencePolicy]]


def default_policies(seed: int = 0) -> Dict[str, ResiliencePolicy]:
    """Per-service defaults used by the chaos bench and CLI.

    QA and IMM — the degradable branches — get tight deadlines, real retry
    budgets, and breakers; ASR (fatal, so failures are expensive) gets a
    generous deadline and retries but no breaker (one bad utterance must
    not blacklist the recognizer); classification is glue and gets a bare
    retry.
    """
    return {
        "asr": ResiliencePolicy(
            deadline_seconds=30.0,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.001, jitter=0.5),
            seed=seed,
        ),
        "classify": ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2), seed=seed,
        ),
        "qa": ResiliencePolicy(
            deadline_seconds=2.0,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.001, jitter=0.5),
            breaker=BreakerPolicy(failure_threshold=4, cooldown_calls=6),
            seed=seed,
        ),
        "imm": ResiliencePolicy(
            deadline_seconds=2.0,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.001, jitter=0.5),
            breaker=BreakerPolicy(failure_threshold=3, cooldown_calls=5),
            seed=seed,
        ),
    }


def wrap_services(
    services: Mapping[str, Service],
    policies: Optional[PolicySpec] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Dict[str, Service]:
    """Wrap a service registry: ``ResilientService(FaultInjector(service))``.

    ``policies`` may be one policy for every service or a per-name mapping
    (missing names fall back to :func:`default_policies`); ``fault_plan``
    (when given) slips a deterministic :class:`FaultInjector` under each
    wrapper.  Inner services are shared, not copied — wrapping is cheap and
    repeatable, and a fresh wrap starts with fresh breakers and logs.
    """
    defaults = default_policies()
    wrapped: Dict[str, Service] = {}
    for name, service in services.items():
        inner = service
        if fault_plan is not None:
            inner = FaultInjector(inner, fault_plan)
        if isinstance(policies, ResiliencePolicy):
            policy = policies
        elif policies is not None and name in policies:
            policy = policies[name]
        else:
            policy = defaults.get(name, ResiliencePolicy())
        wrapped[name] = ResilientService(inner, policy)
    return wrapped


def resilient_executor(executor, policies: Optional[PolicySpec] = None,
                       fault_plan: Optional[FaultPlan] = None):
    """A new :class:`~repro.serving.executor.PlanExecutor` over wrapped services.

    The original executor is untouched; call this again for every chaos run
    so breakers and call logs start from scratch (which is what makes
    ``repro serve-bench --chaos SEED`` replay identically).
    """
    from repro.serving.executor import PlanExecutor

    return PlanExecutor(
        wrap_services(executor.services, policies, fault_plan),
        plan=executor.plan,
        trace_seed=executor.trace_seed,
        metrics=executor.metrics,
    )
