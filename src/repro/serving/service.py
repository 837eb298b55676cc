"""The uniform ``Service`` interface of the serving layer.

The paper treats ASR, QA, and IMM as datacenter *services* — the unit of
latency measurement (Figs 7/8), queueing (Fig 17), and provisioning
(Tables 8/9).  This module gives each of them one shape: ``invoke`` on a
typed request envelope, a ``warmup()`` hook for lazy state (index builds,
first-call caches), and :class:`StageOutcome` — one stage's result in the
plan executor's accounting terms, whether the walk ran it in place or a
streaming session ran it ahead of the walk.  Every
call is measured by the executor's stage bracket
(:func:`repro.serving.executor.run_stage`), never by the service itself.

The wrappers are thin on purpose: all algorithmic behaviour stays in
``repro.asr`` / ``repro.qa`` / ``repro.imm``; the serving layer only adds
the request envelope.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.errors import SiriusError
from repro.obs.trace import Span

#: Canonical service registry keys (also the stage section names).
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
    identically at every worker count (see :mod:`repro.serving.faults`).
    """

    payload: Any
    query: Any = None
    ordinal: int = 0
    attempt: int = 0


@dataclass
class StageOutcome:
    """One stage's result, in the executor's own accounting terms.

    Built by :func:`repro.serving.executor.run_stage` wherever the stage
    ran — in place by the walk, or as a streaming session's bouts ahead of
    ``run()`` — for :meth:`PlanExecutor._absorb`.  ``seconds`` is what
    ``service_seconds`` records (measured time plus virtual latency);
    ``spans`` carries what a session's *private* tracer recorded, and
    stays empty when the stage ran directly under the query's own.
    """

    payload: Any = None
    error: Optional[SiriusError] = None
    seconds: float = 0.0
    virtual_seconds: float = 0.0
    spans: Tuple[Span, ...] = ()


class Service(abc.ABC):
    """One Sirius service behind the uniform serving interface."""

    #: Stage section / registry key, e.g. ``"asr"``.
    name: str = ""
    #: ``SiriusResponse.service_seconds`` label, e.g. ``"ASR"``.
    label: str = ""

    @abc.abstractmethod
    def invoke(self, request: ServiceRequest) -> Any:
        """Run the wrapped component; returns its natural result object."""

    def warmup(self) -> None:
        """Materialize lazy state so the first real query pays no setup."""

    def __repr__(self) -> str:
        return f"<Service {self.name}>"


class AsrService(Service):
    """Speech recognition over a :class:`~repro.asr.decoder.Decoder`."""

    name = ASR
    label = "ASR"

    def __init__(self, decoder):
        self.decoder = decoder

    def invoke(self, request: ServiceRequest):
        return self.decoder.decode_waveform(request.payload)


class ClassifierService(Service):
    """Query classification (action vs. question).

    Classification is glue, not one of the paper's measured services, so
    the executor's walk runs it un-sectioned and it contributes no
    ``service_seconds`` entry, exactly as the monolithic pipeline behaved.
    """

    name = CLASSIFY
    label = "CLASSIFY"

    def __init__(self, classifier):
        self.classifier = classifier

    def invoke(self, request: ServiceRequest):
        return self.classifier.classify(request.payload)


class QaService(Service):
    """Question answering over a :class:`~repro.qa.engine.QAEngine`."""

    name = QA
    label = "QA"

    def __init__(self, engine):
        self.engine = engine

    def invoke(self, request: ServiceRequest):
        # An unrecognized utterance still gets a QA pass (the pipeline's
        # historical `transcript or "?"` contract).
        return self.engine.answer(request.payload or "?")


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

    def invoke(self, request: ServiceRequest):
        return self.database.match(request.payload)
