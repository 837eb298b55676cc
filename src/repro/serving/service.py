"""The uniform ``Service`` interface of the serving layer.

The paper treats ASR, QA, and IMM as datacenter *services* — the unit of
latency measurement (Figs 7/8), queueing (Fig 17), and provisioning
(Tables 8/9).  This module gives each of them one shape: a typed
request/response envelope, a ``warmup()`` hook for lazy state (index
builds, first-call caches), a profiled ``__call__`` for standalone calls,
and :class:`StageOutcome` — one stage's result in the plan executor's
accounting terms, whichever way the stage ran.

The wrappers are thin on purpose: all algorithmic behaviour stays in
``repro.asr`` / ``repro.qa`` / ``repro.imm``; the serving layer only adds
envelopes and uniform instrumentation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.errors import SiriusError
from repro.obs.trace import Span, TraceContext
from repro.profiling import Profile, Profiler

#: Canonical service registry keys (also the profiler section names).
ASR = "asr"
CLASSIFY = "classify"
QA = "qa"
IMM = "imm"


@dataclass(frozen=True)
class ServiceRequest:
    """Uniform request envelope.

    ``payload`` is the service's natural input (a ``Waveform`` for ASR, a
    question string for QA, an ``Image`` for IMM); ``query`` optionally
    carries the originating :class:`~repro.core.query.IPAQuery` for
    services that need surrounding context.

    ``ordinal`` is the query's position in its ``run_all`` stream and
    ``attempt`` the retry attempt number — together the deterministic key
    the resilience layer uses to seed jitter and replay injected faults
    identically on every backend (see :mod:`repro.serving.faults`).

    ``trace`` carries the parent span's picklable coordinates when the
    call is part of a traced query: a stage handed to another thread
    resumes the trace there and ships the recorded spans back on its
    outcome (see :mod:`repro.obs.trace`).  ``admitted_at`` is the
    dispatcher's ``perf_counter`` reading at hand-off, so the receiving
    side can measure queueing delay (``wait_seconds``) separately from
    service time.
    """

    payload: Any
    query: Any = None
    ordinal: int = 0
    attempt: int = 0
    trace: Optional[TraceContext] = None
    admitted_at: Optional[float] = None


@dataclass(frozen=True)
class ServiceStats:
    """Per-call measurements, recorded uniformly for every stage."""

    service: str            #: service label, e.g. ``"ASR"``
    seconds: float          #: profiled seconds inside the call + virtual latency
    wait_seconds: float = 0.0  #: admission → invoke-start queueing delay


@dataclass
class ServiceResponse:
    """Uniform response envelope: the service's natural output + metrics."""

    payload: Any
    stats: ServiceStats
    profile: Profile = field(default_factory=Profile)
    spans: Tuple[Span, ...] = ()  #: spans recorded by a traced worker-side call


@dataclass
class StageOutcome:
    """One plan stage's result, in the executor's own accounting terms.

    Built by :func:`repro.serving.executor.run_stage` wherever the stage
    ran — in place, on a branch thread, or as a streaming session's bouts
    ahead of ``run()`` — for :meth:`PlanExecutor._absorb`.  ``seconds`` is what
    ``service_seconds`` records (profiled time plus virtual latency);
    ``profile`` and ``spans`` carry what a branch's or session's *private*
    profiler and tracer recorded, and stay empty when the stage ran
    directly under the query's own.
    """

    payload: Any = None
    error: Optional[SiriusError] = None
    seconds: float = 0.0
    virtual_seconds: float = 0.0
    #: Admission-to-start delay, measured only when the stage was handed
    #: to another thread (0 for a stage run in place).
    wait_seconds: float = 0.0
    profile: Profile = field(default_factory=Profile)
    spans: Tuple[Span, ...] = ()


class Service(abc.ABC):
    """One Sirius service behind the uniform serving interface."""

    #: Profiler section / registry key, e.g. ``"asr"``.
    name: str = ""
    #: ``SiriusResponse.service_seconds`` label, e.g. ``"ASR"``.
    label: str = ""

    @abc.abstractmethod
    def invoke(self, request: ServiceRequest, profiler: Profiler) -> Any:
        """Run the wrapped component; returns its natural result object."""

    def warmup(self) -> None:
        """Materialize lazy state so the first real query pays no setup."""

    def open_session(
        self,
        *,
        query: Any = None,
        ordinal: int = 0,
        seed: Optional[int] = None,
        record: bool = True,
        endpoint_config: Any = None,
    ):
        """Open a streaming session for one query's stage (see
        :mod:`repro.serving.sessions`).

        The default is a :class:`~repro.serving.sessions.BufferingSession`:
        chunks accumulate and ``finish()`` makes one ordinary ``invoke``
        through *this* service — wrappers (resilience, fault injection)
        inherit it, so their retry/fault behaviour under a session is
        byte-identical to the batch path.  Services with a genuinely
        incremental implementation override this (see
        :meth:`AsrService.open_session`).
        """
        # Imported lazily: sessions sits above the service layer.
        from repro.serving.sessions import BufferingSession

        return BufferingSession(
            self, query=query, ordinal=ordinal, seed=seed,
            record=record, endpoint_config=endpoint_config,
        )

    def __call__(
        self, request: ServiceRequest, profiler: Optional[Profiler] = None
    ) -> ServiceResponse:
        """One instrumented standalone call: payload + :class:`ServiceStats` + profile.

        An adapter over the executor's stage bracket, so ``stats`` reads
        what a plan stage would be charged.  When the request carries a
        :class:`~repro.obs.trace.TraceContext` the recorded spans ship home
        on the response (or, on failure, on the re-raised error's
        ``__sirius_spans__``).
        """
        # Imported lazily: the executor sits above the service layer.
        from repro.serving.executor import run_handed_off

        outcome = run_handed_off(
            self, request, True, profiler if profiler is not None else Profiler()
        )
        if outcome.error is not None:
            outcome.error.__sirius_spans__ = outcome.spans
            raise outcome.error
        return ServiceResponse(
            payload=outcome.payload,
            stats=ServiceStats(
                service=self.label,
                seconds=outcome.seconds,
                wait_seconds=outcome.wait_seconds,
            ),
            profile=outcome.profile,
            spans=outcome.spans,
        )

    def __repr__(self) -> str:
        return f"<Service {self.name}>"


class AsrService(Service):
    """Speech recognition over a :class:`~repro.asr.decoder.Decoder`."""

    name = ASR
    label = "ASR"

    def __init__(self, decoder):
        self.decoder = decoder

    def invoke(self, request: ServiceRequest, profiler: Profiler):
        return self.decoder.decode_waveform(request.payload, profiler=profiler)

    def open_session(
        self,
        *,
        query: Any = None,
        ordinal: int = 0,
        seed: Optional[int] = None,
        record: bool = True,
        endpoint_config: Any = None,
    ):
        """Incremental recognition with VAD endpointing and partials.

        Only the *bare* ASR service streams incrementally; once wrapped in
        resilience/fault layers the inherited buffering session applies
        (retries need the whole utterance to replay an attempt).
        """
        from repro.serving.sessions import AsrStreamingSession

        return AsrStreamingSession(
            self, self.decoder, query=query, ordinal=ordinal, seed=seed,
            record=record, endpoint_config=endpoint_config,
        )


class ClassifierService(Service):
    """Query classification (action vs. question).

    Classification is glue, not one of the paper's measured services, so
    the default query plans mark its stage ``record=False`` — it runs
    un-sectioned and contributes no ``service_seconds`` entry, exactly as
    the monolithic pipeline behaved.
    """

    name = CLASSIFY
    label = "CLASSIFY"

    def __init__(self, classifier):
        self.classifier = classifier

    def invoke(self, request: ServiceRequest, profiler: Profiler):  # noqa: ARG002
        return self.classifier.classify(request.payload)


class QaService(Service):
    """Question answering over a :class:`~repro.qa.engine.QAEngine`."""

    name = QA
    label = "QA"

    def __init__(self, engine):
        self.engine = engine

    def invoke(self, request: ServiceRequest, profiler: Profiler):
        # An unrecognized utterance still gets a QA pass (the pipeline's
        # historical `transcript or "?"` contract).
        return self.engine.answer(request.payload or "?", profiler=profiler)


class ImmService(Service):
    """Image matching over an :class:`~repro.imm.database.ImageDatabase`."""

    name = IMM
    label = "IMM"

    def __init__(self, database):
        self.database = database

    def warmup(self) -> None:
        # Build the pooled ANN matcher now; otherwise the first matched
        # query pays the k-d tree construction.
        self.database._ensure_matcher()

    def invoke(self, request: ServiceRequest, profiler: Profiler):
        return self.database.match(request.payload, profiler=profiler)
