"""Tests for the streaming session refactor: sessions, gateway, equivalence.

Layout follows the acceptance criteria:

- the **single-chunk equivalence anchor**: a session fed the whole
  utterance as one chunk and finished without polling must produce a
  byte-identical ``SiriusResponse`` — fields *and* the span forest with
  ``timing=False`` — to plain ``PlanExecutor.run()``, on the fault-free
  path, in line and on the forked fan-out, and under seeded chaos;
- the session over a *wrapped* ASR service (buffered chunks, one invoke
  at finish) and the session lifecycle (idempotent finish, misuse
  errors);
- incremental ASR: monotone partials, identical final transcript, partial
  spans with attributes, positive TTFP;
- the VAD endpointer unit behaviour;
- the asyncio gateway: 50 concurrent sessions, endpoint auto-fire with
  late-chunk dropping, and chaos replay determinism;
- the bouts (errors surface unchanged, every bout runs on the event loop's
  thread and none overlaps, ``max_workers`` must be 1, a closed gateway
  refuses every operation) and the session's one sample rate;
- one bout per gateway operation, and the 50-session stream's
  transcripts, partial counts and endpoint decisions against the golden
  written at the commit that still took two hops per ``feed``.
"""

import asyncio
import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from repro.asr import Synthesizer
from repro.asr.audio import Waveform
from repro.asr.vad import MIN_TRAILING_SILENCE, StreamingEndpointer
from repro.errors import ConfigurationError, DecodingError, SessionError
from repro.obs.report import metrics_from_spans
from repro.obs.timeseries import E2E_METRIC, QUERIES_METRIC, TTFP_METRIC, RollupStore
from repro.obs.trace import PARTIAL
from repro.serving import (
    ASR,
    AsrSession,
    FaultPlan,
    PlanExecutor,
    StreamingGateway,
    chunk_waveform,
    default_chaos_plan,
    default_policies,
    resilient_executor,
    serve_streams,
)
from repro.serving.identity import outcome_fingerprint, span_fingerprint
from tests.conformance.stubs import make_query, stub_services
from tests.test_streaming_golden import GATEWAY_KEY, GOLDEN, gateway_trace

CHAOS_SEED = 11


@pytest.fixture
def traced_executor(sirius_pipeline):
    """The shared executor with a pinned trace seed (restored afterwards)."""
    executor = sirius_pipeline.serving
    executor.trace_seed = 0
    yield executor
    executor.trace_seed = None


def _queries(input_set, n):
    queries = input_set.all_queries
    return [queries[i % len(queries)] for i in range(n)]


def _fields(responses):
    """The shared outcome fingerprint, plus ``action`` (which it leaves out)."""
    return outcome_fingerprint(responses), [r.action for r in responses]


def _session_replay(executor, query, ordinal, on_error="raise"):
    """One-chunk session + ``run(precomputed=...)`` — the streaming path
    collapsed to its batch-equivalent skeleton."""
    session = AsrSession(
        executor.services[ASR], query=query, ordinal=ordinal,
        seed=executor.trace_seed,
    )
    session.feed(query.audio)
    outcome = session.finish()
    return executor.run(
        query, ordinal=ordinal, on_error=on_error, precomputed={ASR: outcome}
    )


# ---------------------------------------------------------------------------
# The single-chunk equivalence anchor
# ---------------------------------------------------------------------------


class TestSingleChunkEquivalence:
    def test_fault_free_byte_equivalence(self, traced_executor, input_set):
        queries = _queries(input_set, 6)
        plain = [traced_executor.run(q, ordinal=i) for i, q in enumerate(queries)]
        replayed = [
            _session_replay(traced_executor, q, i)
            for i, q in enumerate(queries)
        ]
        assert _fields(plain) == _fields(replayed)
        assert span_fingerprint(plain) == span_fingerprint(replayed)

    def test_equivalence_across_backends(self, traced_executor, input_set):
        queries = _queries(input_set, 4)
        replayed = [
            _session_replay(traced_executor, q, i)
            for i, q in enumerate(queries)
        ]
        want = span_fingerprint(replayed)
        for workers in (1, 2):
            responses = traced_executor.run_all(queries, workers=workers)
            assert _fields(responses) == _fields(replayed), workers
            assert span_fingerprint(responses) == want, workers

    def test_chaos_byte_equivalence(self, sirius_pipeline, input_set):
        queries = _queries(input_set, 12)

        def chaos_executor():
            executor = resilient_executor(
                sirius_pipeline.serving,
                default_policies(seed=CHAOS_SEED),
                default_chaos_plan(CHAOS_SEED),
            )
            executor.trace_seed = CHAOS_SEED
            return executor

        batch = chaos_executor().run_all(queries, on_error="degrade")
        replay_exec = chaos_executor()
        replayed = [
            _session_replay(replay_exec, q, i, on_error="degrade")
            for i, q in enumerate(queries)
        ]
        assert _fields(batch) == _fields(replayed)
        assert span_fingerprint(batch) == span_fingerprint(replayed)
        # the chaos plan must actually have injected something, or the
        # equivalence above proved nothing about the fault path
        assert any(r.failures for r in batch)


# ---------------------------------------------------------------------------
# The session over a wrapped ASR service, and the lifecycle
# ---------------------------------------------------------------------------


@pytest.fixture
def wrapped_asr(sirius_pipeline):
    """The pipeline's ASR service behind resilience and an empty fault plan."""
    executor = resilient_executor(
        sirius_pipeline.serving, default_policies(seed=CHAOS_SEED),
        FaultPlan(seed=0, rules={}),
    )
    return executor.services[ASR]


class TestWrappedAsrSession:
    def test_single_chunk_is_identity(
        self, sirius_pipeline, wrapped_asr, input_set, monkeypatch
    ):
        query = input_set.all_queries[0]
        decoder = sirius_pipeline.decoder
        decode, heard = decoder.decode_waveform, []
        monkeypatch.setattr(
            decoder, "decode_waveform", lambda w: heard.append(w) or decode(w)
        )
        session = AsrSession(wrapped_asr)
        session.feed(query.audio)
        outcome = session.finish()
        assert outcome.error is None
        # one invoke, on the very object the batch request builder passes
        assert len(heard) == 1 and heard[0] is query.audio
        assert outcome.payload.text == decode(query.audio).text

    def test_waveform_chunks_concatenate(
        self, sirius_pipeline, wrapped_asr, input_set
    ):
        query = input_set.all_queries[1]
        session = AsrSession(wrapped_asr)
        for chunk in chunk_waveform(query.audio, 0.2):
            session.feed(chunk)
            # a wrapped service streams nothing, and runs no bout to say so
            assert session.partials() == []
        assert session._seconds == 0.0
        outcome = session.finish()
        assert outcome.payload.text == sirius_pipeline.decoder.decode_waveform(
            query.audio
        ).text

    def test_mixed_chunk_types_rejected(self, sirius_pipeline, input_set):
        session = AsrSession(sirius_pipeline.serving.services[ASR])
        session.feed(input_set.all_queries[0].audio)
        with pytest.raises(SessionError):
            session.feed("not audio")

    def test_finish_without_chunks_raises(self, wrapped_asr):
        session = AsrSession(wrapped_asr)
        with pytest.raises(SessionError):
            session.finish()

    def test_finish_is_idempotent(self, wrapped_asr, input_set):
        session = AsrSession(wrapped_asr)
        session.feed(input_set.all_queries[0].audio)
        assert session.finish() is session.finish()


class TestSessionSampleRate:
    """The first chunk fixes a session's rate; the streaming front-end frames
    at it, and a chunk at another rate is refused on either path."""

    @pytest.fixture(scope="class")
    def narrowband(self):
        """An utterance decimated to 8 kHz (one the 16 kHz model still
        decodes to some path: most such utterances leave no survivor)."""
        wide = Synthesizer(seed=3).synthesize("call the office now")
        return Waveform(wide.samples[::2], wide.sample_rate // 2)

    def test_8khz_session_frames_as_the_batch_decode(self, sirius_pipeline, narrowband):
        service = sirius_pipeline.serving.services[ASR]
        session = AsrSession(service)
        for chunk in chunk_waveform(narrowband, 0.1):
            session.feed(chunk)
            session.partials()
        outcome = session.finish()
        assert session._streaming is not None  # the engaged (streaming) path
        assert outcome.error is None
        expected = service.decoder.decode_waveform(narrowband)
        assert outcome.payload.n_frames == expected.n_frames
        assert expected.n_frames == len(service.decoder.feature_extractor.extract(narrowband))
        # Framed at 16 kHz, the same samples would be half as many frames.
        assert session._streaming.frames_seen == expected.n_frames

    def test_mixed_rates_raise_on_the_engaged_path(self, sirius_pipeline, narrowband):
        session = AsrSession(sirius_pipeline.serving.services[ASR])
        wide = Synthesizer(seed=3).synthesize("set my alarm")
        first, second = chunk_waveform(wide, 0.1)[:2]
        session.feed(first)
        session.feed(second)
        assert session._streaming is not None
        with pytest.raises(SessionError, match="8000 Hz in a session at 16000 Hz"):
            session.feed(chunk_waveform(narrowband, 0.1)[0])
        assert len(session.chunks) == 2

    def test_mixed_rates_raise_on_the_buffered_path(self, wrapped_asr, narrowband):
        session = AsrSession(wrapped_asr)
        session.feed(narrowband)
        with pytest.raises(SessionError, match="16000 Hz in a session at 8000 Hz"):
            session.feed(np.zeros(160))
        assert session.finish().error is None


# ---------------------------------------------------------------------------
# Incremental ASR sessions
# ---------------------------------------------------------------------------


class TestIncrementalAsr:
    def test_partials_grow_and_final_matches_batch(
        self, sirius_pipeline, input_set
    ):
        service = sirius_pipeline.serving.services[ASR]
        query = input_set.all_queries[0]
        session = AsrSession(service, query=query, ordinal=0, seed=0)
        heard, counts = [], []
        for chunk in chunk_waveform(query.audio, 0.1):
            session.feed(chunk)
            heard.extend(session.partials())
            counts.append(len(heard))
        outcome = session.finish()
        assert counts == sorted(counts)
        assert len(heard) >= 1
        assert outcome.payload.text == service.decoder.decode_waveform(
            query.audio
        ).text

    def test_partial_spans_and_positive_ttfp(self, sirius_pipeline, input_set):
        query = input_set.all_queries[0]
        executor = sirius_pipeline.serving
        executor.trace_seed = 0
        try:
            session = AsrSession(
                executor.services[ASR], query=query, ordinal=0, seed=0
            )
            opened_at = session.opened_at
            for chunk in chunk_waveform(query.audio, 0.1):
                session.feed(chunk)
                session.partials()
            outcome = session.finish()
            response = executor.run(
                query, ordinal=0, precomputed={ASR: outcome},
                wall_start=opened_at,
            )
        finally:
            executor.trace_seed = None
        partial_spans = [s for s in response.spans if s.kind == PARTIAL]
        assert partial_spans, "streaming run must record partial spans"
        first = min(s.end for s in partial_spans)
        assert first > opened_at
        for index, span in enumerate(
            sorted(partial_spans, key=lambda s: s.attributes["partial_index"])
        ):
            assert span.name == "asr.partial"
            assert span.attributes["partial_index"] == index
            assert span.attributes["chars"] > 0
        ttfp = metrics_from_spans(response.spans).snapshot().merged_panel(TTFP_METRIC)
        assert ttfp.observed == 1
        assert ttfp.mean > 0


# ---------------------------------------------------------------------------
# The VAD endpointer
# ---------------------------------------------------------------------------


class TestEndpointer:
    def _speech_then_silence(self, input_set, silence_seconds):
        audio = input_set.all_queries[0].audio
        pad = np.zeros(int(silence_seconds * audio.sample_rate))
        return np.concatenate([audio.samples, pad]), audio.sample_rate

    def test_trailing_silence_endpoints(self, input_set):
        samples, rate = self._speech_then_silence(input_set, 1.0)
        endpointer = StreamingEndpointer(sample_rate=rate)
        assert endpointer.push(samples) is True
        assert endpointer.endpointed

    def test_pure_silence_never_endpoints(self):
        endpointer = StreamingEndpointer(sample_rate=16000)
        assert endpointer.push(np.zeros(16000 * 2)) is False
        assert not endpointer.endpointed

    def test_reset_reopens_the_utterance(self, input_set):
        samples, rate = self._speech_then_silence(input_set, 1.0)
        endpointer = StreamingEndpointer(sample_rate=rate)
        endpointer.push(samples)
        assert endpointer.endpointed
        endpointer.reset()
        assert not endpointer.endpointed
        assert len(endpointer._sorted) == 0

    def test_config_validates(self):
        # A trailing-silence count below one would endpoint on the first
        # quiet frame after speech, however short the pause.
        assert MIN_TRAILING_SILENCE >= 1


# ---------------------------------------------------------------------------
# The asyncio gateway
# ---------------------------------------------------------------------------


class TestStreamingGateway:
    def test_fifty_concurrent_sessions(self, traced_executor, input_set):
        queries = _queries(input_set, 50)
        store = RollupStore()
        saved = traced_executor.metrics
        traced_executor.metrics = store
        try:
            report = serve_streams(traced_executor, queries, chunk_seconds=0.25)
        finally:
            traced_executor.metrics = saved
        reference = traced_executor.run_all(queries)
        assert len(report.responses) == 50
        assert [r.transcript for r in report.responses] == [
            r.transcript for r in reference
        ]
        assert [r.answer for r in report.responses] == [
            r.answer for r in reference
        ]
        assert report.partials_total > 0
        snapshot = store.snapshot()
        assert snapshot.merged_panel(TTFP_METRIC).observed == 50
        assert snapshot.merged_panel(E2E_METRIC).observed == 50
        assert snapshot.counter_total(QUERIES_METRIC, status="ok") == 50
        # recorded on the session-ordinal clock: ten windows of five
        assert snapshot.windows() == tuple(range(10))

    def test_streaming_replay_is_deterministic(self, traced_executor, input_set):
        queries = _queries(input_set, 6)
        first = serve_streams(traced_executor, queries, chunk_seconds=0.2)
        second = serve_streams(traced_executor, queries, chunk_seconds=0.2)
        assert span_fingerprint(first.responses) == span_fingerprint(second.responses)
        assert first.partial_counts == second.partial_counts

    def test_chaos_streaming_replay_is_deterministic(
        self, sirius_pipeline, input_set
    ):
        queries = _queries(input_set, 8)

        def run_once():
            executor = resilient_executor(
                sirius_pipeline.serving,
                default_policies(seed=CHAOS_SEED),
                default_chaos_plan(CHAOS_SEED),
            )
            executor.trace_seed = CHAOS_SEED
            return serve_streams(executor, queries, chunk_seconds=0.2)

        first, second = run_once(), run_once()
        assert span_fingerprint(first.responses) == span_fingerprint(second.responses)
        assert _fields(first.responses) == _fields(second.responses)

    def test_endpoint_fires_downstream_and_drops_late_audio(
        self, traced_executor, input_set
    ):
        query = input_set.all_queries[0]
        audio = query.audio
        padded = dataclasses.replace(
            query,
            audio=Waveform(
                np.concatenate(
                    [audio.samples, np.zeros(int(1.2 * audio.sample_rate))]
                ),
                audio.sample_rate,
            ),
        )
        report = serve_streams(traced_executor, [padded], chunk_seconds=0.1)
        assert report.endpointed == [True]
        assert report.late_chunks > 0
        reference = traced_executor.run(query, ordinal=0)
        assert report.responses[0].transcript == reference.transcript

    def test_gateway_requires_asr(self, sirius_pipeline):
        no_asr = PlanExecutor(dict(sirius_pipeline.serving.services))
        del no_asr.services[ASR]
        with pytest.raises(ConfigurationError):
            StreamingGateway(no_asr)


def _submissions(executor, session, **gateway_options):
    """How many bouts a fresh gateway runs while ``session(gateway)`` (a
    coroutine function) runs: every bout first checks, once, that the gateway
    is open."""

    async def drive():
        gateway = StreamingGateway(executor, **gateway_options)
        checks = gateway._check_open

        def counted():
            bouts[0] += 1
            checks()

        gateway._check_open = counted
        with gateway:
            await session(gateway)

    bouts = [0]
    asyncio.run(drive())
    return bouts[0]


class TestGatewayWorkers:
    """The bouts: errors, the event loop's one thread, and ``close``."""

    def test_a_bout_error_surfaces_unchanged(self):
        feed_error = DecodingError("garbled chunk")
        finish_error = SessionError("stream torn down", service=ASR)

        def failing_feed(chunk):
            raise feed_error

        def failing_finish():
            raise finish_error

        async def drive():
            with StreamingGateway(PlanExecutor(stub_services(), trace_seed=7)) as gateway:
                handle = gateway.open_session(make_query("hello"))
                handle.session.feed = failing_feed
                with pytest.raises(DecodingError) as fed:
                    await handle.feed(handle.query.audio)
                handle.session.finish = failing_finish
                with pytest.raises(SessionError) as finished:
                    await handle.finish()
                return fed.value, finished.value

        fed, finished = asyncio.run(drive())
        assert fed is feed_error and finished is finish_error

    def test_bouts_run_on_the_loop_thread_one_at_a_time(self):
        running, peak, threads = [0], [0], set()

        def bout(chunk):
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            threads.add(threading.get_ident())
            time.sleep(0.005)  # long enough for any other thread to overlap
            running[0] -= 1
            return False

        async def drive():
            executor = PlanExecutor(stub_services(), trace_seed=7)
            with StreamingGateway(executor) as gateway:
                handles = [gateway.open_session(make_query(f"q{i}")) for i in range(4)]
                for handle in handles:
                    handle.session.feed = bout
                    handle.session.partials = lambda: []
                await asyncio.gather(*(h.feed(h.query.audio) for h in handles))
            return threading.get_ident()

        before = set(threading.enumerate())
        loop_thread = asyncio.run(drive())
        assert peak[0] == 1 and threads == {loop_thread}
        assert not set(threading.enumerate()) - before  # the gateway started none

    def test_max_workers_must_be_one(self, traced_executor, input_set):
        with pytest.raises(ConfigurationError, match="max_workers"):
            StreamingGateway(traced_executor, max_workers=2)
        query = input_set.all_queries[0]

        async def drive():
            # The benchmark harness's construction.
            with StreamingGateway(
                traced_executor, max_workers=1, poll_on_feed=True
            ) as gateway:
                handle = gateway.open_session(query)
                for chunk in chunk_waveform(query.audio, 0.1):
                    await handle.feed(chunk)
                return handle, await handle.finish()

        handle, response = asyncio.run(drive())
        assert handle.partials and response.transcript == handle.partials[-1]

    def test_closed_gateway_refuses_every_operation(self):
        async def drive():
            gateway = StreamingGateway(PlanExecutor(stub_services(), trace_seed=7))
            handle = gateway.open_session(make_query("hello"))
            gateway.close()
            gateway.close()  # idempotent
            for operation in (lambda: handle.feed(handle.query.audio),
                              handle.poll, handle.finish):
                with pytest.raises(SessionError, match="closed"):
                    await operation()

        asyncio.run(drive())


class TestOneHopPerOperation:
    """A gateway operation is one bout on the loop (``feed`` with its poll,
    ``poll``, finalization with its downstream stages)."""

    @pytest.fixture
    def spoken(self, input_set):
        query = input_set.all_queries[0]
        return query, chunk_waveform(query.audio, 0.1)

    def test_poll_on_feed_session_is_chunks_plus_one(self, traced_executor, spoken):
        query, chunks = spoken

        async def session(gateway):
            handle = gateway.open_session(query)
            for chunk in chunks:
                await handle.feed(chunk)
            response = await handle.finish()
            assert handle.partials and response.transcript == handle.partials[-1]

        assert _submissions(traced_executor, session) == len(chunks) + 1

    def test_explicit_polls_cost_one_each(self, traced_executor, spoken):
        query, chunks = spoken
        polls = 3

        async def session(gateway):
            handle = gateway.open_session(query)
            for index, chunk in enumerate(chunks):
                await handle.feed(chunk)
                if index < polls:
                    await handle.poll()
            await handle.finish()

        assert (
            _submissions(traced_executor, session, poll_on_feed=False)
            == len(chunks) + polls + 1
        )

    def test_each_bout_makes_its_session_calls(self, traced_executor, spoken, monkeypatch):
        query, chunks = spoken
        calls = []

        def counted(name, method):
            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return call

        async def drive():
            with StreamingGateway(traced_executor) as gateway:
                handle = gateway.open_session(query)
                for name in ("feed", "partials", "finish"):
                    method = getattr(handle.session, name)
                    setattr(handle.session, name, counted(f"session.{name}", method))
                monkeypatch.setattr(
                    traced_executor, "run", counted("executor.run", traced_executor.run)
                )
                per_operation = []
                for operation in (lambda: handle.feed(chunks[0]), handle.poll,
                                  handle.finish):
                    await operation()
                    per_operation.append(list(calls))
                    calls.clear()
                return per_operation

        assert asyncio.run(drive()) == [
            ["session.feed", "session.partials"],
            ["session.partials"],
            ["session.finish", "executor.run"],
        ]

    def test_failing_feed_propagates_without_a_poll(self, traced_executor, spoken):
        query, chunks = spoken
        polled = []

        async def session(gateway):
            handle = gateway.open_session(query)
            await handle.feed(chunks[0])

            def broken_feed(chunk):
                raise SessionError("microphone unplugged", service=ASR)

            handle.session.feed = broken_feed
            handle.session.partials = lambda: polled.append(True) or []
            with pytest.raises(SessionError, match="unplugged"):
                await handle.feed(chunks[1])
            assert handle.late_chunks == 0 and handle.state == "listening"

        assert _submissions(traced_executor, session) == 2
        assert not polled

    def test_fifty_sessions_match_parent_golden(self, sirius_pipeline, input_set):
        expected = json.loads(GOLDEN.read_text())[GATEWAY_KEY]
        assert expected["late_chunks"] > 0 and any(expected["endpointed"])
        assert gateway_trace(sirius_pipeline.serving, input_set) == expected
