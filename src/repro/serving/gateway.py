"""The asyncio front door: many slow-arriving voice sessions, one executor.

The paper's load model is a *stream* of independent users talking to the
datacenter; audio for one query arrives over hundreds of milliseconds
while other queries are mid-utterance.  The gateway multiplexes those
sessions over one event loop:

- each arriving query opens an :class:`~repro.serving.sessions.AsrSession`
  with a **deterministic ordinal** assigned at open, so
  resilience jitter and injected faults replay byte-identically however
  the audio interleaves;
- every gateway operation is **one** submission to a thread pool via
  ``run_in_executor`` (``feed`` decodes the chunk and extracts its partials
  in one callable; finalization finishes ASR and runs downstream in one) —
  the event loop itself never blocks, which is the whole point of an async
  front door (and what statcheck's SC801 async-hygiene rule checks);
- the moment the VAD endpointer closes an utterance, the gateway fires
  the downstream plan stages (classify → QA/IMM) as a background task
  while other sessions' audio is still arriving; ``finish()`` merely
  awaits that task;
- ``cancel()`` is barge-in: the utterance is abandoned, the session's
  spans close with a ``SESSION`` error code, and downstream never runs
  (not even when a ``feed`` already on the pool comes back endpointed).

Per-session work bouts are serialized by an ``asyncio.Lock`` (sessions are
not thread-safe; *different* sessions overlap freely on the pool), and
time-to-first-partial is observed into ``executor.metrics`` at the first
non-empty partial — the TTFP column next to end-to-end latency in
``repro trace-report``.  Downstream runs ``executor.plan`` and degrades on
a failure, as ``run_all(on_error="degrade")`` does.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

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
CANCELLED = "cancelled"      #: barge-in


class GatewaySession:
    """One user's utterance in flight through the gateway.

    All methods must be awaited on the gateway's event loop; the session's
    blocking work runs on the gateway pool.  Audio fed after finalization
    started is *dropped* (counted in :attr:`late_chunks`) — the endpointer
    already closed the utterance, and late audio must not perturb the
    deterministic transcript.
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
        self._lock = asyncio.Lock()
        self._task: Optional[asyncio.Task] = None
        self._cancelled = False

    @property
    def state(self) -> str:
        if self._cancelled:
            return CANCELLED
        if self.response is not None:
            return DONE
        if self._task is not None:
            return FINALIZING
        return LISTENING

    async def feed(self, chunk: Any) -> bool:
        """Deliver one audio chunk; returns True once the utterance ended."""
        async with self._lock:
            if self._task is not None or self._cancelled:
                self.late_chunks += 1
                return True
            endpointed, fresh = await self.gateway._call(self._feed, chunk)
            self._heard(fresh)
        # A cancel() awaited while this bout was on the pool has already
        # abandoned the utterance: finalizing it could only fail.
        if endpointed and not self._cancelled:
            self._launch()
        return endpointed

    def _feed(self, chunk: Any) -> Tuple[bool, List[str]]:
        """Blocking: one chunk in and, with ``poll_on_feed``, its partials out
        (both in the one pool submission ``feed`` makes)."""
        endpointed = self.session.feed(chunk)
        fresh = self.session.partials() if self.gateway.poll_on_feed else []
        return endpointed, fresh

    async def poll(self) -> List[str]:
        """Explicitly poll for new partial hypotheses."""
        async with self._lock:
            if self._task is not None or self._cancelled:
                return []
            return self._heard(await self.gateway._call(self.session.partials))

    def _heard(self, fresh: List[str]) -> List[str]:
        """On the loop: record fresh partials, stamping TTFP at the first."""
        if fresh:
            if not self.partials and self.ttfp is None:
                self.ttfp = time.perf_counter() - self.opened_at
                self.gateway._observe_ttfp(self.ttfp, self.ordinal)
            self.partials.extend(fresh)
        return fresh

    async def finish(self):
        """Await the full :class:`~repro.core.query.SiriusResponse`.

        Starts finalization if the endpointer never fired (stream simply
        ended).  Raises :class:`~repro.errors.SessionError` after barge-in.
        """
        if self._cancelled:
            raise SessionError(
                f"session ordinal={self.ordinal} was cancelled (barge-in)",
                service=ASR,
            )
        return await self._launch()

    async def cancel(self) -> Optional[str]:
        """Barge-in: abandon the utterance.

        Returns the last partial heard (what the user got to say), or
        ``None`` when it is already too late — the endpoint fired and the
        answer is being (or has been) computed.  Idempotent.
        """
        if self._cancelled:
            return self.session.last_partial
        if self._task is not None:
            return None
        self._cancelled = True
        async with self._lock:
            return await self.gateway._call(self.session.cancel)

    def _launch(self) -> "asyncio.Task":
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._finalize())
        return self._task

    async def _finalize(self):
        async with self._lock:
            response = await self.gateway._call(self._downstream)
        self.response = response
        self.gateway._record(response, self.ordinal)
        return response

    def _downstream(self):
        """Blocking: finish the ASR stage, then classify → QA/IMM off it."""
        outcome = self.session.finish()
        return self.gateway.executor.run(
            self.query,
            ordinal=self.ordinal,
            on_error=DEGRADE,
            precomputed={ASR: outcome},
            wall_start=self.opened_at,
        )

    def __repr__(self) -> str:
        return (f"<GatewaySession ordinal={self.ordinal} {self.state} "
                f"partials={len(self.partials)}>")


class StreamingGateway:
    """Multiplexes concurrent streaming sessions onto a :class:`PlanExecutor`.

    ``poll_on_feed`` controls whether every ``feed`` also polls partials
    (engaging incremental decoding); disable it to keep single-chunk
    sessions on the byte-identical batch path.  Downstream stages fire the
    moment the endpointer closes an utterance.
    """

    def __init__(
        self,
        executor: PlanExecutor,
        *,
        max_workers: int = 8,
        poll_on_feed: bool = True,
    ):
        if max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        if ASR not in executor.services:
            raise ConfigurationError(
                "streaming gateway needs an 'asr' service in the executor"
            )
        self.executor = executor
        self.poll_on_feed = poll_on_feed
        self._asr_record = next(
            (s.record for s in executor.plan.stages if s.service == ASR), True
        )
        self._next_ordinal = 0
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="stream-gateway"
        )

    def open_session(self, query) -> GatewaySession:
        """Admit one query; its ordinal is fixed now, in arrival order."""
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        session = AsrSession(
            self.executor.services[ASR],
            query=query,
            ordinal=ordinal,
            seed=self.executor.trace_seed,
            record=self._asr_record,
        )
        return GatewaySession(self, session, query, ordinal)

    async def _call(self, fn: Callable, *args):
        """Run one blocking session bout on the pool, off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, lambda: fn(*args))

    def _observe_ttfp(self, seconds: float, ordinal: int) -> None:
        if self.executor.metrics is not None:
            self.executor.metrics.observe(TTFP_METRIC, float(ordinal), seconds)

    def _record(self, response, ordinal: int) -> None:
        if self.executor.metrics is not None:
            record_response(self.executor.metrics, response, ordinal)

    def close(self) -> None:
        self._pool.shutdown(wait=True)

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
    # Round-robin the chunks: every session's next chunk is delivered
    # concurrently with every other session's — the slow-arriving-audio
    # interleaving the gateway exists to absorb.
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
    max_workers: int = 8,
    poll_on_feed: bool = True,
) -> StreamReport:
    """Drive a whole query stream through a gateway, synchronously.

    The entry point ``repro serve-bench --streaming``, the ``serve.
    streaming`` benchmark, and the CI smoke step share: opens one session
    per query (ordinals in list order), interleaves all sessions' chunks
    round-robin, finishes everything, and reports responses plus streaming
    responsiveness (partial counts, TTFP, endpoint decisions).
    """
    gateway = StreamingGateway(
        executor, max_workers=max_workers, poll_on_feed=poll_on_feed
    )
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
