"""Streaming service sessions: ``feed`` / ``partials`` / ``finish`` / ``cancel``.

A real IPA does not receive an utterance as one payload: audio trickles in
while the user speaks, the recognizer emits partial hypotheses, and the
backend fires downstream stages the moment the endpointer closes the
utterance.  This module adds that *session* shape to the serving layer
without disturbing the batch path:

- :class:`ServiceSession` — the protocol.  ``feed(chunk)`` appends input,
  ``partials()`` returns any new incremental hypotheses, ``finish()``
  produces a :class:`~repro.serving.service.StageOutcome` the
  :class:`~repro.serving.executor.PlanExecutor` absorbs as a precomputed
  stage, ``cancel()`` implements barge-in (the user interrupts; the
  utterance is abandoned).
- :class:`BufferingSession` — the default adapter every service gets for
  free: chunks buffer, and ``finish()`` makes one ordinary ``invoke``
  through the *wrapped* service — so resilience retries, fault injection,
  deadlines, and their deterministic ``(service, ordinal, attempt)`` keys
  behave byte-for-byte like the batch path.
- :class:`AsrStreamingSession` — real incremental decoding for a bare
  :class:`~repro.serving.service.AsrService`, backed by
  :class:`~repro.asr.streaming.StreamingDecoder`, with VAD endpointing from
  :class:`~repro.asr.vad.StreamingEndpointer`.

**The equivalence anchor.**  A session fed the entire utterance as one
chunk and finished *without ever polling partials* must produce a
byte-identical response — including the span forest exported with
``timing=False`` — to :meth:`PlanExecutor.run` on the same query.  Every
session work bout therefore goes through the executor's own stage bracket
(:func:`repro.serving.executor.run_stage`: drain the virtual-latency
ledger, profile a ``section(service.name)`` around the call, capture the
error, charge ``virtual_seconds``), and :class:`AsrStreamingSession` defers
engaging the incremental decoder until a second chunk or a ``partials()``
poll proves the caller actually streams: the single-chunk session takes
the very same ``decode_waveform`` path as the batch executor.

**Span identity.**  The session resumes the query's trace at the root's
coordinates and opens its service span with the executor's own
:func:`~repro.serving.executor.begin_service_span`, so the IDs are the ones
``PlanExecutor.run`` would mint.  The span stays open across work bouts
that may land on different threads (:meth:`~repro.obs.trace.Tracer.reenter`),
is closed by the executor's :func:`~repro.serving.executor.end_span`, and
travels to the executor inside :attr:`StageOutcome.spans` for adoption.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.asr.audio import Waveform
from repro.asr.vad import EndpointConfig, StreamingEndpointer
from repro.errors import SessionError, SiriusError
from repro.obs.context import use_tracer
from repro.obs.trace import PARTIAL, Span, Tracer
from repro.profiling import Profiler
from repro.serving.executor import begin_service_span, end_span, run_stage
from repro.serving.service import Service, ServiceRequest, StageOutcome

#: Session lifecycle states.
LISTENING = "listening"    #: accepting chunks
FINISHED = "finished"      #: ``finish()`` ran; outcome available
CANCELLED = "cancelled"    #: barge-in; the utterance was abandoned


def _concat_waveforms(chunks: Sequence[Waveform], service: str) -> Waveform:
    """Join audio chunks into one utterance (a lone chunk passes through)."""
    if len(chunks) == 1:
        # Identity, not a rebuild: the single-chunk path must hand the
        # service the very object the batch request builder would.
        return chunks[0]
    rates = {chunk.sample_rate for chunk in chunks}
    if len(rates) > 1:
        raise SessionError(
            f"cannot combine chunks with mixed sample rates {sorted(rates)}",
            service=service,
        )
    return Waveform(
        np.concatenate([chunk.samples for chunk in chunks]),
        chunks[0].sample_rate,
    )


class ServiceSession:
    """Base streaming handle over one service stage of one query.

    Not thread-safe by itself: the gateway serializes each session's work
    bouts (different bouts may still run on different pool threads — the
    tracer's :meth:`~repro.obs.trace.Tracer.reenter` and the
    bout-scoped profiler sections are designed for exactly that).
    """

    def __init__(
        self,
        service: Service,
        *,
        query: Any = None,
        ordinal: int = 0,
        seed: Optional[int] = None,
        record: bool = True,
        endpoint_config: Optional[EndpointConfig] = None,
    ):
        self.service = service
        self.query = query
        self.ordinal = ordinal
        self.seed = seed
        self.record = record
        self.state = LISTENING
        self.opened_at = time.perf_counter()
        self.profiler = Profiler()
        self.chunks: List[Any] = []
        self._endpoint_config = (
            endpoint_config if endpoint_config is not None else EndpointConfig()
        )
        self._endpointer: Optional[StreamingEndpointer] = None
        self._outcome: Optional[StageOutcome] = None
        self._final_spans: Tuple[Span, ...] = ()
        #: ``service_seconds`` credit and virtual latency summed over bouts.
        self._seconds = 0.0
        self._virtual = 0.0
        self._tracer: Optional[Tracer] = None
        self._span: Optional[Span] = None
        if seed is not None:
            # Open the service span exactly where run() would: under the
            # query's root.  The root itself is owned by the executor (run()
            # recreates it deterministically); only its coordinates are
            # needed here.
            root = Tracer(seed=seed)
            root.begin_trace(ordinal)
            self._tracer = Tracer.resume(root.context())
            self._span = begin_service_span(self._tracer, service)
            self._span.start = self.opened_at

    # -- lifecycle ---------------------------------------------------------------

    def _require(self, action: str) -> None:
        if self.state != LISTENING:
            raise SessionError(
                f"cannot {action} a {self.state} session "
                f"(service={self.service.name!r}, ordinal={self.ordinal})",
                service=self.service.name,
            )

    def feed(self, chunk: Any) -> bool:
        """Append one input chunk; returns the endpointer's decision so far."""
        self._require("feed")
        self.chunks.append(chunk)
        return self._observe_audio(chunk)

    def partials(self) -> List[str]:
        """New incremental hypotheses since the last poll (none by default)."""
        return []

    def finish(self) -> StageOutcome:
        """Close the input stream and run (or finalize) the stage.

        Idempotent once finished; service failures are *captured* on the
        outcome (the executor classifies them), only session misuse raises.
        """
        if self.state == FINISHED:
            return self._outcome
        self._require("finish")
        if not self.chunks:
            raise SessionError(
                f"finish() on a session that was never fed "
                f"(service={self.service.name!r}, ordinal={self.ordinal})",
                service=self.service.name,
            )
        self._outcome = self._finalize()
        self._final_spans = self._outcome.spans
        self.state = FINISHED
        return self._outcome

    def cancel(self) -> str:
        """Barge-in: abandon the utterance; returns the last partial heard.

        Idempotent.  Cancelling a *finished* session is a caller bug (the
        answer already exists) and raises :class:`~repro.errors.SessionError`.
        """
        if self.state == CANCELLED:
            return self.last_partial
        self._require("cancel")
        self.state = CANCELLED
        if self._span is not None:
            self._span.attributes["cancelled"] = True
        self._final_spans = self._end_span(
            SessionError(
                f"session ordinal={self.ordinal} was cancelled (barge-in)",
                service=self.service.name,
            )
        )
        return self.last_partial

    @property
    def spans(self) -> Tuple[Span, ...]:
        """Spans recorded by this session (empty until finish/cancel)."""
        return self._final_spans

    @property
    def outcome(self) -> Optional[StageOutcome]:
        return self._outcome

    @property
    def last_partial(self) -> str:
        return ""

    @property
    def endpointed(self) -> bool:
        return self._endpointer is not None and self._endpointer.endpointed

    # -- endpointing -------------------------------------------------------------

    def _observe_audio(self, chunk: Any) -> bool:
        """Run the causal endpointer over audio-bearing chunks."""
        if isinstance(chunk, Waveform):
            samples, rate = chunk.samples, chunk.sample_rate
        elif isinstance(chunk, np.ndarray):
            samples, rate = chunk, 16000
        else:
            return self.endpointed
        if self._endpointer is None:
            self._endpointer = StreamingEndpointer(
                self._endpoint_config, sample_rate=rate
            )
        return self._endpointer.push(samples)

    # -- the executor-equivalent stage bracket -------------------------------------

    @contextmanager
    def _bout(self) -> Iterator[None]:
        """One synchronous work bout under this session's trace identity."""
        if self._tracer is None:
            yield
            return
        with use_tracer(self._tracer), self._tracer.reenter(self._span):
            yield

    def _run_bout(self, call: Callable[[], Any]) -> StageOutcome:
        """One bout of work through the executor's stage bracket.

        Adds the bout's seconds and virtual latency to the session's
        totals; a captured error is the caller's to surface.
        """
        with self._bout():
            bout = run_stage(self.service, call, self.profiler, self.record)
        self._seconds += bout.seconds
        self._virtual += bout.virtual_seconds
        return bout

    def _invoke(self, payload: Any) -> StageOutcome:
        """Run the whole stage as one bout, as ``PlanExecutor._run_stage`` does.

        The request carries the session's ordinal (attempt/fault keys) but
        no ``TraceContext`` — like the executor's serial path, the call runs
        in-thread under the ambient tracer, so resilience attempt spans and
        profiler sections nest under the session's service span.
        """
        request = ServiceRequest(
            payload=payload,
            query=self.query,
            ordinal=self.ordinal,
            admitted_at=time.perf_counter(),
        )
        return self._close(
            self._run_bout(lambda: self.service.invoke(request, self.profiler))
        )

    def _end_span(self, error: Optional[SiriusError]) -> Tuple[Span, ...]:
        """Close the service span as ``run_stage`` closes a one-bout stage's;
        returns it with everything under it."""
        if self._span is None:
            return ()
        with self._bout():
            end_span(self._tracer, self._span, error, self._virtual)
        return self._tracer.finish()

    def _close(self, last: StageOutcome) -> StageOutcome:
        """Pack the stage up: ``last`` is the final bout (its payload or
        error is the stage's); seconds and virtual latency are the sums
        over every bout."""
        return StageOutcome(
            payload=last.payload,
            error=last.error,
            seconds=self._seconds,
            virtual_seconds=self._virtual,
            profile=self.profiler.profile,
            spans=self._end_span(last.error),
        )

    def _finalize(self) -> StageOutcome:
        return self._invoke(self._combine(self.chunks))

    # -- chunk assembly ----------------------------------------------------------

    def _combine(self, chunks: Sequence[Any]) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.service.name} "
                f"ordinal={self.ordinal} {self.state} "
                f"chunks={len(self.chunks)}>")


class BufferingSession(ServiceSession):
    """The default adapter: buffer everything, one batch ``invoke`` at finish.

    Because the invoke goes through the service *as wrapped* — resilience
    retries, fault injection, circuit breakers and all — a chaos run served
    through buffering sessions replays byte-identically against the batch
    executor: the deterministic fault keys ``(service, ordinal, attempt)``
    and the attempt-span structure are untouched by the session layer.
    """

    def _combine(self, chunks: Sequence[Any]) -> Any:
        if len(chunks) == 1:
            # Identity, not a rebuild: the single-chunk path must hand the
            # service the very object the batch request builder would.
            return chunks[0]
        first = chunks[0]
        if isinstance(first, Waveform):
            if not all(isinstance(chunk, Waveform) for chunk in chunks):
                raise self._mixed(chunks)
            return _concat_waveforms(chunks, self.service.name)
        if isinstance(first, np.ndarray):
            if not all(isinstance(chunk, np.ndarray) for chunk in chunks):
                raise self._mixed(chunks)
            return np.concatenate(
                [np.asarray(chunk, dtype=float).ravel() for chunk in chunks]
            )
        if isinstance(first, str):
            if not all(isinstance(chunk, str) for chunk in chunks):
                raise self._mixed(chunks)
            return "".join(chunks)
        raise SessionError(
            f"no combine rule for chunk type {type(first).__name__!r} "
            f"(service={self.service.name!r}); feed a single chunk instead",
            service=self.service.name,
        )

    def _mixed(self, chunks: Sequence[Any]) -> SessionError:
        kinds = sorted({type(chunk).__name__ for chunk in chunks})
        return SessionError(
            f"cannot combine mixed chunk types {kinds} "
            f"(service={self.service.name!r})",
            service=self.service.name,
        )


class AsrStreamingSession(ServiceSession):
    """Incremental recognition over a bare :class:`~repro.serving.service.AsrService`.

    **Deferred engagement.**  The first chunk only buffers; the incremental
    :class:`~repro.asr.streaming.StreamingDecoder` engages when a second
    chunk arrives or ``partials()`` is first polled (buffered audio is
    replayed into it).  A session fed one chunk and finished without
    polling therefore takes the exact batch ``decode_waveform`` path — the
    byte-identical-equivalence anchor.  The endpointer runs on *every*
    chunk regardless; it decides when to finalize, never which audio the
    decoder sees, so endpointing cannot perturb the transcript.

    Partial hypotheses are recorded as ``asr.partial`` spans (kind
    ``partial``) under the service span — the time-to-first-partial metric
    in ``repro trace-report`` is derived from the first of these.
    """

    def __init__(
        self,
        service: Service,
        decoder: Any,
        *,
        query: Any = None,
        ordinal: int = 0,
        seed: Optional[int] = None,
        record: bool = True,
        endpoint_config: Optional[EndpointConfig] = None,
    ):
        super().__init__(
            service, query=query, ordinal=ordinal, seed=seed,
            record=record, endpoint_config=endpoint_config,
        )
        self._decoder = decoder
        self._streaming: Any = None
        self._fed = 0                       # chunks already replayed/fed
        self._emitted: List[str] = []       # every distinct partial, in order
        self._last = ""

    # -- feeding -----------------------------------------------------------------

    def feed(self, chunk: Any) -> bool:
        self._require("feed")
        waveform = self._as_waveform(chunk)
        self.chunks.append(waveform)
        endpointed = self._observe_audio(waveform)
        if self._streaming is None:
            if len(self.chunks) > 1:
                self._engage()
        else:
            self._pump()
        return endpointed

    def _as_waveform(self, chunk: Any) -> Waveform:
        if isinstance(chunk, Waveform):
            return chunk
        if isinstance(chunk, np.ndarray):
            return Waveform(np.asarray(chunk, dtype=float).ravel())
        raise SessionError(
            f"ASR sessions take Waveform or sample-array chunks, "
            f"got {type(chunk).__name__!r}",
            service=self.service.name,
        )

    def _engage(self) -> None:
        """Switch to incremental decoding, replaying buffered audio."""
        from repro.asr.streaming import StreamingDecoder

        self._streaming = StreamingDecoder(self._decoder, profiler=self.profiler)
        self._pump()

    def _pump(self) -> None:
        """Feed every not-yet-decoded chunk through the streaming decoder."""
        pending = self.chunks[self._fed :]
        if not pending:
            return
        self._fed = len(self.chunks)

        def feed_pending() -> None:
            for waveform in pending:
                self._streaming.feed(waveform.samples)

        bout = self._run_bout(feed_pending)
        if bout.error is not None:
            raise bout.error

    # -- partials ----------------------------------------------------------------

    def partials(self) -> List[str]:
        """New (changed, non-empty) hypotheses since the last poll.

        The first poll engages incremental decoding; partial texts are
        monotonically appended to :attr:`partials_emitted` and each new one
        records an ``asr.partial`` span under the service span.
        """
        if self.state != LISTENING:
            return []
        if not self.chunks:
            return []
        if self._streaming is None:
            self._engage()
        bout = self._run_bout(self._streaming.partial)
        if bout.error is not None:
            raise bout.error
        text = bout.payload
        if not text or text == self._last:
            return []
        self._last = text
        self._emitted.append(text)
        if self._tracer is not None:
            with self._bout(), self._tracer.span(
                "asr.partial",
                kind=PARTIAL,
                service=self.service.label,
                attributes={
                    "partial_index": len(self._emitted) - 1,
                    "chars": len(text),
                    "frames": self._streaming.frames_seen,
                },
            ):
                pass
        return [text]

    @property
    def partials_emitted(self) -> Tuple[str, ...]:
        return tuple(self._emitted)

    @property
    def last_partial(self) -> str:
        return self._last

    # -- finishing ---------------------------------------------------------------

    def _finalize(self) -> StageOutcome:
        if self._streaming is None:
            # Never engaged: the batch path, byte-identical to the executor.
            return self._invoke(_concat_waveforms(self.chunks, self.service.name))
        bout = self._run_bout(self._streaming.finish)
        if self._span is not None:
            self._span.attributes["chunks"] = len(self.chunks)
            if self._emitted:
                self._span.attributes["partials"] = len(self._emitted)
            if self.endpointed:
                self._span.attributes["endpointed"] = True
        return self._close(bout)
