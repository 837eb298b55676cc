"""Exception hierarchy for the Sirius reproduction.

Every package raises subclasses of :class:`SiriusError` so callers can catch
library failures without masking programming errors (``TypeError`` etc.).

Each class carries a stable, machine-readable ``code`` attribute so CLI
surfaces and logs can classify failures without string-matching messages
(e.g. ``repro lint`` exits 2 and prints ``error[STATCHECK]: ...`` when the
analyzer itself fails, versus exit 1 for genuine findings).
"""

from __future__ import annotations


class SiriusError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable machine-readable error code; subclasses override.
    code = "SIRIUS"


class ConfigurationError(SiriusError):
    """A component was configured with invalid or inconsistent parameters."""

    code = "CONFIG"


class RegexSyntaxError(SiriusError):
    """A regular-expression pattern could not be parsed."""

    code = "REGEX_SYNTAX"

    def __init__(self, message: str, pattern: str, position: int):
        super().__init__(f"{message} (pattern={pattern!r}, pos={position})")
        self.pattern = pattern
        self.position = position


class DecodingError(SiriusError):
    """ASR decoding failed (empty lattice, no surviving beam path, ...)."""

    code = "DECODING"


class ModelError(SiriusError):
    """A statistical model was used before training or with bad shapes."""

    code = "MODEL"


class ImageError(SiriusError):
    """Image-matching input was malformed (wrong dtype, empty image, ...)."""

    code = "IMAGE"


class QueryError(SiriusError):
    """An IPA query was malformed or unsupported by the pipeline."""

    code = "QUERY"


class DesignError(SiriusError):
    """Datacenter design-space search was given infeasible constraints."""

    code = "DESIGN"


class ProfilerError(SiriusError):
    """The component profiler was used outside its contract.

    Raised e.g. for :meth:`repro.profiling.Profiler.reset` while sections
    are still open: the open ``section()`` context managers hold indices
    into the stack being discarded, so continuing would silently attribute
    pre-reset time to the fresh profile.
    """

    code = "PROFILER"


class ServiceError(SiriusError):
    """A serving-layer service call failed after resilience handling.

    Raised by :class:`repro.serving.resilience.ResilientService` when a
    wrapped service exhausts its retry budget or returns an invalid
    (corrupted) payload.  ``service`` names the failing service so callers
    can attribute the failure without parsing the message.
    """

    code = "SERVICE"

    def __init__(self, message: str, service: str = ""):
        super().__init__(message)
        self.service = service


class DeadlineExceededError(ServiceError):
    """A service call (including retries and backoff) overran its deadline.

    The deadline is a total per-call budget: it covers every attempt, the
    backoff sleeps between them, and any injected virtual latency.
    """

    code = "DEADLINE"


class CircuitOpenError(ServiceError):
    """A call was rejected fast because the service's circuit breaker is open.

    Never retried: the breaker exists precisely to shed load from a failing
    service, so the caller must degrade (or fail) immediately.
    """

    code = "CIRCUIT_OPEN"


class InjectedFaultError(ServiceError):
    """A deterministic fault injected by :class:`repro.serving.faults.FaultInjector`.

    The default code is ``INJECTED``; a :class:`~repro.serving.faults.FaultRule`
    may override it per rule so chaos tests can assert exactly which injected
    failure surfaced where.
    """

    code = "INJECTED"

    def __init__(self, message: str, service: str = "", code: str = ""):
        super().__init__(message, service=service)
        if code:
            self.code = code


class AdmissionError(ServiceError):
    """A query was rejected at the cluster router by admission control.

    Raised (or recorded as a failed response) by
    :class:`repro.serving.cluster.fleet.Cluster` when the seeded admission
    policy sheds load — a full replica queue or a deterministic drop coin.
    Never retried: admission control exists to protect the fleet's tail,
    so the caller must surface the rejection immediately.
    """

    code = "ADMISSION"


class SessionError(ServiceError):
    """A streaming service session was used outside its lifecycle contract.

    Raised by :mod:`repro.serving.sessions` when a session is fed after
    ``finish()``/``cancel()``, finished twice with conflicting expectations,
    finished with no audio, or asked to combine chunks of incompatible
    types.  Barge-in itself is not an error — ``cancel()`` succeeds — but
    *using* a cancelled session is.
    """

    code = "SESSION"


class TraceError(SiriusError):
    """The tracing/metrics layer was used outside its contract.

    Raised e.g. for starting a span with no enclosing trace, ending a span
    that is not the innermost open one on its thread, merging rollups
    with mismatched window/reservoir configuration, or reading a malformed
    span export.
    """

    code = "TRACE"


class ObsError(SiriusError):
    """A span forest handed to the analysis layer was malformed.

    Raised by :mod:`repro.obs.critical_path` (and the CLI surfaces over it)
    for forests that violate the tracer's structural contract: an export
    with no spans at all, a span whose ``parent_id`` references a span
    missing from its trace, or a trace with no root span.
    """

    code = "OBS"


class StatcheckError(SiriusError):
    """The statcheck analyzer was misconfigured or could not run.

    Raised for analyzer-side failures (malformed baseline, unknown rule
    code, unreadable path) — never for findings in the analyzed code, which
    are reported as :class:`repro.statcheck.Finding` objects instead.
    """

    code = "STATCHECK"
