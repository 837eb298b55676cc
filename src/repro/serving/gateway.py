"""The asyncio front door: many slow-arriving voice sessions, one executor.

The paper's load model is a *stream* of independent users talking to the
datacenter; audio for one query arrives over hundreds of milliseconds
while other queries are mid-utterance.  The gateway multiplexes those
sessions over one event loop:

- each arriving query opens an :class:`~repro.serving.sessions.AsrSession`
  with a **deterministic ordinal** assigned at open, so
  resilience jitter and injected faults replay byte-identically however
  the audio interleaves;
- every gateway operation is **one** synchronous bout on the event loop's
  own thread (``feed`` decodes the chunk and extracts its partials;
  finalization finishes ASR and runs downstream).  The loop serves no
  socket, and these small-array bouts hold the GIL anyway, so a worker
  thread would buy no overlap and cost a cross-thread round trip per
  chunk; a bout never suspends, so it is atomic on the loop and sessions
  need no lock;
- the moment the VAD endpointer closes an utterance, the gateway fires
  the rest of the query walk (classify → IMM/QA) as a background task
  while other sessions' audio is still arriving; ``finish()`` merely
  awaits that task.

Time-to-first-partial is observed into ``executor.metrics`` at the first
non-empty partial — the TTFP column next to end-to-end latency in
``repro trace-report``.  Downstream runs the executor's walk and degrades
on a failure, as ``run_all(on_error="degrade")`` does.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.asr.audio import Waveform
from repro.errors import ConfigurationError, SessionError
from repro.obs.timeseries import TTFP_METRIC, record_response
from repro.serving.executor import DEGRADE, PlanExecutor
from repro.serving.service import ASR
from repro.serving.sessions import AsrSession

#: Gateway-session states (the underlying ASR session has its own).
LISTENING = "listening"      #: audio still welcome
FINALIZING = "finalizing"    #: endpoint fired; downstream running
DONE = "done"                #: response available


class GatewaySession:
    """One user's utterance in flight through the gateway.

    All methods must be awaited on the gateway's event loop, which runs the
    session's work itself.  Audio fed after finalization started is
    *dropped* (counted in :attr:`late_chunks`) — the endpointer already
    closed the utterance, and late audio must not perturb the deterministic
    transcript.
    """

    def __init__(
        self, gateway: "StreamingGateway", session: AsrSession, query, ordinal: int
    ):
        self.gateway = gateway
        self.session = session
        self.query = query
        self.ordinal = ordinal
        self.opened_at = session.opened_at
        self.partials: List[str] = []
        self.ttfp: Optional[float] = None
        self.response: Any = None
        self.late_chunks = 0
        self._task: Optional[asyncio.Task] = None

    @property
    def state(self) -> str:
        if self.response is not None:
            return DONE
        if self._task is not None:
            return FINALIZING
        return LISTENING

    async def feed(self, chunk: Any) -> bool:
        """Deliver one audio chunk and, with ``poll_on_feed``, take its
        partials; returns True once the utterance ended."""
        if self._task is not None:
            self.late_chunks += 1
            return True
        self.gateway._check_open()
        endpointed = self.session.feed(chunk)
        if self.gateway.poll_on_feed:
            self._heard(self.session.partials())
        if endpointed:
            self._launch()
        return endpointed

    async def poll(self) -> List[str]:
        """Explicitly poll for new partial hypotheses."""
        if self._task is not None:
            return []
        self.gateway._check_open()
        return self._heard(self.session.partials())

    def _heard(self, fresh: List[str]) -> List[str]:
        """Record fresh partials, stamping TTFP at the first."""
        if fresh:
            if not self.partials and self.ttfp is None:
                self.ttfp = time.perf_counter() - self.opened_at
                self.gateway._observe_ttfp(self.ttfp, self.ordinal)
            self.partials.extend(fresh)
        return fresh

    async def finish(self):
        """Await the full :class:`~repro.core.query.SiriusResponse`.

        Starts finalization if the endpointer never fired (stream simply
        ended).
        """
        return await self._launch()

    def _launch(self) -> "asyncio.Task":
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._finalize())
        return self._task

    async def _finalize(self):
        """Finish the ASR stage, then classify → QA/IMM off it."""
        self.gateway._check_open()
        outcome = self.session.finish()
        self.response = self.gateway.executor.run(
            self.query,
            ordinal=self.ordinal,
            on_error=DEGRADE,
            precomputed={ASR: outcome},
            wall_start=self.opened_at,
        )
        self.gateway._record(self.response, self.ordinal)
        return self.response

    def __repr__(self) -> str:
        return (f"<GatewaySession ordinal={self.ordinal} {self.state} "
                f"partials={len(self.partials)}>")


class StreamingGateway:
    """Multiplexes concurrent streaming sessions onto a :class:`PlanExecutor`.

    ``poll_on_feed`` controls whether every ``feed`` also polls partials
    (engaging incremental decoding); disable it to keep single-chunk
    sessions on the byte-identical batch path.  Downstream stages fire the
    moment the endpointer closes an utterance.  ``max_workers`` must be 1:
    the event loop's thread is the only one that runs a bout.
    """

    def __init__(
        self,
        executor: PlanExecutor,
        *,
        max_workers: int = 1,
        poll_on_feed: bool = True,
    ):
        if max_workers != 1:
            raise ConfigurationError(
                "max_workers must be 1: bouts run on the event loop's thread"
            )
        if ASR not in executor.services:
            raise ConfigurationError(
                "streaming gateway needs an 'asr' service in the executor"
            )
        self.executor = executor
        self.poll_on_feed = poll_on_feed
        self._next_ordinal = 0
        self._closed = False

    def open_session(self, query) -> GatewaySession:
        """Admit one query; its ordinal is fixed now, in arrival order."""
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        session = AsrSession(
            self.executor.services[ASR],
            query=query,
            ordinal=ordinal,
            seed=self.executor.trace_seed,
        )
        return GatewaySession(self, session, query, ordinal)

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("the streaming gateway is closed", service=ASR)

    def _observe_ttfp(self, seconds: float, ordinal: int) -> None:
        if self.executor.metrics is not None:
            self.executor.metrics.observe(TTFP_METRIC, float(ordinal), seconds)

    def _record(self, response, ordinal: int) -> None:
        if self.executor.metrics is not None:
            record_response(self.executor.metrics, response, ordinal)

    def close(self) -> None:
        """Refuse every later bout (idempotent)."""
        self._closed = True

    def __enter__(self) -> "StreamingGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- synchronous driver -------------------------------------------------------------


def chunk_waveform(
    waveform: Waveform, chunk_seconds: float = 0.1
) -> List[Waveform]:
    """Cut an utterance into the arrival chunks a microphone would deliver."""
    if chunk_seconds <= 0:
        raise ConfigurationError("chunk_seconds must be positive")
    step = max(int(chunk_seconds * waveform.sample_rate), 1)
    samples = waveform.samples
    if len(samples) <= step:
        return [waveform]
    return [
        Waveform(samples[offset : offset + step], waveform.sample_rate)
        for offset in range(0, len(samples), step)
    ]


@dataclass
class StreamReport:
    """What one driven stream produced, for benches and smoke checks."""

    responses: List[Any] = field(default_factory=list)
    partial_counts: List[int] = field(default_factory=list)
    ttfp_seconds: List[Optional[float]] = field(default_factory=list)
    endpointed: List[bool] = field(default_factory=list)
    late_chunks: int = 0

    @property
    def partials_total(self) -> int:
        return sum(self.partial_counts)


async def _drive(
    gateway: StreamingGateway,
    queries: Sequence[Any],
    chunk_seconds: float,
) -> Tuple[List[GatewaySession], List[Any]]:
    handles = [gateway.open_session(query) for query in queries]
    streams = [
        chunk_waveform(handle.query.audio, chunk_seconds) for handle in handles
    ]
    # Round-robin the chunks: each round delivers every session's next chunk,
    # one bout after another on the loop, and runs the downstream walks the
    # round's endpoints fired — the slow-arriving-audio interleaving the
    # gateway exists to absorb.
    rounds = max(len(stream) for stream in streams) if streams else 0
    for index in range(rounds):
        await asyncio.gather(*(
            handle.feed(stream[index])
            for handle, stream in zip(handles, streams)
            if index < len(stream)
        ))
    responses = await asyncio.gather(*(handle.finish() for handle in handles))
    return handles, list(responses)


def serve_streams(
    executor: PlanExecutor,
    queries: Sequence[Any],
    *,
    chunk_seconds: float = 0.1,
) -> StreamReport:
    """Drive a whole query stream through a gateway, synchronously.

    The entry point ``repro serve-bench --streaming``, the ``serve.
    streaming`` benchmark, and the CI smoke step share: opens one session
    per query (ordinals in list order), interleaves all sessions' chunks
    round-robin, finishes everything, and reports responses plus streaming
    responsiveness (partial counts, TTFP, endpoint decisions).
    """
    gateway = StreamingGateway(executor)
    try:
        handles, responses = asyncio.run(_drive(gateway, queries, chunk_seconds))
    finally:
        gateway.close()
    return StreamReport(
        responses=responses,
        partial_counts=[len(handle.partials) for handle in handles],
        ttfp_seconds=[handle.ttfp for handle in handles],
        endpointed=[handle.session.endpointed for handle in handles],
        late_chunks=sum(handle.late_chunks for handle in handles),
    )
