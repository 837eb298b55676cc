"""Tests for the streaming session refactor: sessions, gateway, equivalence.

Layout follows the acceptance criteria:

- the **single-chunk equivalence anchor**: a session fed the whole
  utterance as one chunk and finished without polling must produce a
  byte-identical ``SiriusResponse`` — fields *and* the span forest with
  ``timing=False`` — to plain ``PlanExecutor.run()``, on the fault-free
  path, across execution backends, and under seeded chaos;
- :class:`BufferingSession` combine rules and the session lifecycle
  (idempotent finish, barge-in cancel, misuse errors);
- incremental ASR: monotone partials, identical final transcript, partial
  spans with attributes, positive TTFP;
- the VAD endpointer unit behaviour;
- the asyncio gateway: 50 concurrent sessions, endpoint auto-fire with
  late-chunk dropping, barge-in, and chaos replay determinism;
- one pool submission per gateway operation, and the 50-session stream's
  transcripts, partial counts and endpoint decisions against the golden
  written at the commit that still took two hops per ``feed``.
"""

import asyncio
import dataclasses
import json

import numpy as np
import pytest

from repro.asr.audio import Waveform
from repro.asr.vad import EndpointConfig, StreamingEndpointer
from repro.errors import ConfigurationError, SessionError
from repro.obs.report import metrics_from_spans
from repro.obs.timeseries import E2E_METRIC, QUERIES_METRIC, TTFP_METRIC, RollupStore
from repro.obs.trace import PARTIAL
from repro.serving import (
    ASR,
    CLASSIFY,
    AsrStreamingSession,
    BufferingSession,
    StreamingGateway,
    chunk_waveform,
    default_chaos_plan,
    default_policies,
    resilient_executor,
    serve_streams,
)
from repro.serving.identity import outcome_fingerprint, span_fingerprint
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
    session = executor.services[ASR].open_session(
        query=query, ordinal=ordinal, seed=executor.trace_seed
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
        for backend in ("serial", "thread", "process"):
            responses = traced_executor.run_all(queries, backend=backend)
            assert _fields(responses) == _fields(replayed), backend
            assert span_fingerprint(responses) == want, backend

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
# BufferingSession combine rules and lifecycle
# ---------------------------------------------------------------------------


class TestBufferingSession:
    def test_single_chunk_is_identity(self, sirius_pipeline, input_set):
        service = sirius_pipeline.serving.services[ASR]
        query = input_set.all_queries[0]
        session = BufferingSession(service)
        session.feed(query.audio)
        outcome = session.finish()
        assert outcome.error is None
        assert outcome.payload.text == service.decoder.decode_waveform(
            query.audio
        ).text

    def test_waveform_chunks_concatenate(self, sirius_pipeline, input_set):
        service = sirius_pipeline.serving.services[ASR]
        query = input_set.all_queries[1]
        session = BufferingSession(service)
        for chunk in chunk_waveform(query.audio, 0.2):
            session.feed(chunk)
        outcome = session.finish()
        assert outcome.payload.text == service.decoder.decode_waveform(
            query.audio
        ).text

    def test_text_chunks_join(self, sirius_pipeline):
        service = sirius_pipeline.serving.services[CLASSIFY]
        whole = BufferingSession(service)
        whole.feed("what is the capital of italy")
        split = BufferingSession(service)
        split.feed("what is the ")
        split.feed("capital of italy")
        assert split.finish().payload == whole.finish().payload

    def test_mixed_chunk_types_rejected(self, sirius_pipeline, input_set):
        service = sirius_pipeline.serving.services[ASR]
        session = BufferingSession(service)
        session.feed(input_set.all_queries[0].audio)
        session.feed("not audio")
        with pytest.raises(SessionError):
            session.finish()

    def test_finish_without_chunks_raises(self, sirius_pipeline):
        session = BufferingSession(sirius_pipeline.serving.services[ASR])
        with pytest.raises(SessionError):
            session.finish()

    def test_finish_is_idempotent(self, sirius_pipeline, input_set):
        session = BufferingSession(sirius_pipeline.serving.services[ASR])
        session.feed(input_set.all_queries[0].audio)
        assert session.finish() is session.finish()

    def test_cancel_lifecycle(self, sirius_pipeline, input_set):
        service = sirius_pipeline.serving.services[ASR]
        session = service.open_session(
            query=input_set.all_queries[0], ordinal=3, seed=0
        )
        session.feed(input_set.all_queries[0].audio)
        session.cancel()
        assert session.cancel() == session.last_partial  # idempotent
        with pytest.raises(SessionError):
            session.feed(input_set.all_queries[0].audio)
        with pytest.raises(SessionError):
            session.finish()
        (span,) = [s for s in session.spans if s.kind == "service"]
        assert span.status == "error"
        assert span.error_code == "SESSION"
        assert span.attributes["cancelled"] is True

    def test_cancel_after_finish_is_a_bug(self, sirius_pipeline, input_set):
        session = BufferingSession(sirius_pipeline.serving.services[ASR])
        session.feed(input_set.all_queries[0].audio)
        session.finish()
        with pytest.raises(SessionError):
            session.cancel()


# ---------------------------------------------------------------------------
# Incremental ASR sessions
# ---------------------------------------------------------------------------


class TestIncrementalAsr:
    def test_partials_grow_and_final_matches_batch(
        self, sirius_pipeline, input_set
    ):
        service = sirius_pipeline.serving.services[ASR]
        query = input_set.all_queries[0]
        session = service.open_session(query=query, ordinal=0, seed=0)
        assert isinstance(session, AsrStreamingSession)
        counts = []
        for chunk in chunk_waveform(query.audio, 0.1):
            session.feed(chunk)
            session.partials()
            counts.append(len(session.partials_emitted))
        outcome = session.finish()
        assert counts == sorted(counts)
        assert len(session.partials_emitted) >= 1
        assert outcome.payload.text == service.decoder.decode_waveform(
            query.audio
        ).text

    def test_partial_spans_and_positive_ttfp(self, sirius_pipeline, input_set):
        query = input_set.all_queries[0]
        executor = sirius_pipeline.serving
        executor.trace_seed = 0
        try:
            session = executor.services[ASR].open_session(
                query=query, ordinal=0, seed=0
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
        endpointer = StreamingEndpointer(EndpointConfig(), sample_rate=rate)
        assert endpointer.push(samples) is True
        assert endpointer.endpointed

    def test_pure_silence_never_endpoints(self):
        endpointer = StreamingEndpointer(EndpointConfig(), sample_rate=16000)
        assert endpointer.push(np.zeros(16000 * 2)) is False
        assert not endpointer.endpointed

    def test_reset_reopens_the_utterance(self, input_set):
        samples, rate = self._speech_then_silence(input_set, 1.0)
        endpointer = StreamingEndpointer(EndpointConfig(), sample_rate=rate)
        endpointer.push(samples)
        assert endpointer.endpointed
        endpointer.reset()
        assert not endpointer.endpointed
        assert endpointer.frames_seen == 0

    def test_config_validates(self):
        with pytest.raises(ConfigurationError):
            EndpointConfig(min_trailing_silence=0)


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
            report = serve_streams(
                traced_executor, queries, chunk_seconds=0.25, max_workers=8
            )
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

    def test_barge_in(self, traced_executor, input_set):
        query = input_set.all_queries[0]
        chunks = chunk_waveform(query.audio, 0.1)

        async def drive():
            gateway = StreamingGateway(traced_executor)
            try:
                handle = gateway.open_session(query)
                for chunk in chunks[: len(chunks) // 2]:
                    await handle.feed(chunk)
                heard = await handle.cancel()
                assert await handle.cancel() == heard  # idempotent
                with pytest.raises(SessionError):
                    await handle.finish()
                return heard, handle
            finally:
                gateway.close()

        heard, handle = asyncio.run(drive())
        assert handle.state == "cancelled"
        assert heard == handle.session.last_partial
        (span,) = [s for s in handle.session.spans if s.kind == "service"]
        assert span.error_code == "SESSION"

    def test_gateway_requires_asr(self, sirius_pipeline):
        from repro.serving.executor import PlanExecutor

        no_asr = PlanExecutor(dict(sirius_pipeline.serving.services))
        del no_asr.services[ASR]
        with pytest.raises(ConfigurationError):
            StreamingGateway(no_asr)


def _submissions(executor, session, **gateway_options):
    """How many callables the gateway's pool is handed while ``session(gateway)``
    (a coroutine function) runs on a fresh gateway."""

    async def drive():
        gateway = StreamingGateway(executor, **gateway_options)
        submit = gateway._pool.submit
        submitted = []

        def counting_submit(fn, *args, **kwargs):
            submitted.append(fn)
            return submit(fn, *args, **kwargs)

        gateway._pool.submit = counting_submit
        try:
            await session(gateway)
        finally:
            gateway.close()
        return len(submitted)

    return asyncio.run(drive())


class TestOneHopPerOperation:
    """A gateway operation is one pool submission (``feed`` with its poll,
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
