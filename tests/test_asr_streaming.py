"""Tests for streaming feature extraction and online decoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asr import (
    BigramLanguageModel,
    Decoder,
    FeatureExtractor,
    Synthesizer,
    collect_training_data,
    train_gmm_acoustic_model,
)
from repro.asr.audio import Waveform
from repro.asr.decoder import ViterbiSearch
from repro.asr.features import (
    DELTA_WINDOW,
    DIMENSION,
    FRAME_HOP,
    FRAME_LENGTH,
    N_COEFFICIENTS,
    PRE_EMPHASIS,
    _tables,
    regression_deltas,
)
from repro.asr.streaming import StreamingDecoder, StreamingFeatureExtractor
from repro.core.inputset import all_sentences
from repro.errors import DecodingError

SENTENCES = [
    "set my alarm for eight am",
    "what is the capital of italy",
    "play some music now",
]


def compute_deltas(features):
    """Deltas over the whole utterance as the batch front end took them:
    edge rows repeated ``DELTA_WINDOW`` times, then regression deltas."""
    padded = np.concatenate(
        (features[:1],) * DELTA_WINDOW + (features,) + (features[-1:],) * DELTA_WINDOW
    )
    return regression_deltas(padded, np.zeros_like(features))


def oracle_extract(wave):
    """The batch front end ``FeatureExtractor.extract`` was before it became
    one push and a flush: pre-emphasis over the whole signal, the per-frame
    cepstra, then the deltas of all of them."""
    samples = wave.samples.astype(float)
    if len(samples) > 1:
        samples = np.concatenate([samples[:1], samples[1:] - PRE_EMPHASIS * samples[:-1]])
    static = FeatureExtractor().static_cepstra(samples, wave.sample_rate)
    return np.hstack([static, compute_deltas(static)])


@pytest.fixture(scope="module")
def decoder():
    data = collect_training_data(SENTENCES, repetitions=3)
    return Decoder(train_gmm_acoustic_model(data), BigramLanguageModel(SENTENCES))


class TestStreamingFeatures:
    def _compare(self, wave, chunk_size):
        offline = oracle_extract(wave)
        streaming = StreamingFeatureExtractor()
        rows = []
        for start in range(0, len(wave.samples), chunk_size):
            rows.append(streaming.push(wave.samples[start : start + chunk_size]))
        rows.append(streaming.flush())
        online = np.vstack(rows)
        return offline, online

    def test_matches_offline_exactly(self):
        wave = Synthesizer(seed=71).synthesize("set my alarm")
        offline, online = self._compare(wave, 777)
        assert offline.shape == online.shape
        assert np.allclose(offline, online, atol=1e-10)

    @settings(deadline=None, max_examples=8)
    @given(chunk_size=st.integers(50, 5000))
    def test_chunk_size_invariance(self, chunk_size):
        wave = Synthesizer(seed=72).synthesize("play some music")
        offline, online = self._compare(wave, chunk_size)
        assert offline.shape == online.shape
        assert np.allclose(offline, online, atol=1e-10)

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_windowed_deltas_are_the_offline_deltas(self, data):
        """Deltas computed over a window of the history are bit-equal to
        ``compute_deltas`` over the whole utterance, however it is cut."""
        wave = Synthesizer(seed=82).synthesize("set my alarm")
        n = len(wave.samples)
        cuts = sorted(data.draw(st.sets(st.integers(0, n), max_size=12), label="cuts"))
        bounds = [0, *cuts, n]
        streaming = StreamingFeatureExtractor()
        rows = [streaming.push(wave.samples[a:b]) for a, b in zip(bounds, bounds[1:])]
        online = np.vstack([*rows, streaming.flush()])
        static = online[:, : online.shape[1] // 2]
        assert len(online) == len(FeatureExtractor().extract(wave))
        assert online[:, static.shape[1] :].tobytes() == compute_deltas(static).tobytes()

    @settings(deadline=None, max_examples=60)
    @given(rows=st.sampled_from([1, 2, 3, 5, 50]), seed=st.integers(0, 2**32 - 1))
    def test_deltas_equal_the_np_pad_formulation(self, rows, seed):
        """Deltas over edge rows repeated by hand; the ``np.pad(mode="edge")``
        formulation that padding replaced is the reference."""
        window = DELTA_WINDOW
        features = np.random.default_rng(seed).normal(0, 3, (rows, 13))
        padded = np.pad(features, ((window, window), (0, 0)), mode="edge")
        numerator = np.zeros_like(features)
        for offset in range(1, window + 1):
            numerator += offset * (
                padded[window + offset : window + offset + rows]
                - padded[window - offset : window - offset + rows]
            )
        reference = numerator / (2.0 * sum(o**2 for o in range(1, window + 1)))
        assert compute_deltas(features).tobytes() == reference.tobytes()

    def test_held_rows_are_constant_in_utterance_length(self):
        """Ten seconds in 100 ms pushes: the static rows held never exceed the
        delta context, the array holding them never grows past one push's
        worth plus that context, and less than one frame window of samples
        waits between pushes."""
        streaming = StreamingFeatureExtractor()
        audio = np.random.default_rng(9).normal(0, 0.1, 10 * 16000)
        chunk, hop, frame = 1600, int(FRAME_HOP * 16000), int(FRAME_LENGTH * 16000)
        capacity = len(streaming._history)
        emitted = 0
        for start in range(0, len(audio), chunk):
            emitted += len(streaming.push(audio[start : start + chunk]))
            assert streaming._held <= 2 * streaming.LOOKAHEAD
            assert len(streaming._samples) < frame
        emitted += len(streaming.flush())
        assert emitted == len(FeatureExtractor().extract(Waveform(audio)))
        assert len(streaming._history) == capacity
        assert capacity <= 2 * (2 * streaming.LOOKAHEAD + chunk // hop + 1)

    def test_empty_pushes_are_noops(self):
        streaming = StreamingFeatureExtractor()
        assert streaming.push(np.zeros(0)).shape[0] == 0
        assert streaming.flush().shape[0] >= 0

    def test_sub_frame_utterance_flush_pads(self):
        """Regression: a whole utterance shorter than one analysis frame
        must still produce the same (padded) frames the offline extractor
        computes, not crash or emit nothing."""
        frame_size = int(FRAME_LENGTH * 16000)
        wave = Synthesizer(seed=79).synthesize("set")
        short = Waveform(wave.samples[: frame_size // 2], wave.sample_rate)
        offline = oracle_extract(short)
        streaming = StreamingFeatureExtractor()
        rows = [streaming.push(short.samples), streaming.flush()]
        online = np.vstack([r for r in rows if r.shape[0]])
        assert online.shape == offline.shape
        assert np.allclose(offline, online, atol=1e-10)

    def test_sub_hop_chunks_match_offline(self):
        """Regression: chunks smaller than the frame hop (here 40 samples
        against a 160-sample hop) must carry state across pushes exactly."""
        wave = Synthesizer(seed=80).synthesize("set")
        offline, online = self._compare(wave, 40)
        assert offline.shape == online.shape
        assert np.allclose(offline, online, atol=1e-10)

    def test_lookahead_delays_emission(self):
        streaming = StreamingFeatureExtractor()
        wave = Synthesizer(seed=73).synthesize("set")
        # Push exactly enough for 3 frames; only 1 should be emitted
        # (2 held back as delta lookahead).
        frame_size = int(0.025 * 16000)
        hop = int(0.010 * 16000)
        emitted = streaming.push(wave.samples[: frame_size + 2 * hop])
        assert len(emitted) == 1


def oracle_compute_deltas(features, window=2):
    """``compute_deltas`` as it was, before it shared ``regression_deltas``."""
    padded = np.concatenate(
        (features[:1],) * window + (features,) + (features[-1:],) * window
    )
    numerator = np.zeros_like(features)
    for offset in range(1, window + 1):
        numerator += offset * (
            padded[window + offset : window + offset + len(features)]
            - padded[window - offset : window - offset + len(features)]
        )
    denominator = 2.0 * sum(offset**2 for offset in range(1, window + 1))
    return numerator / denominator


class OracleStreamingFeatureExtractor(StreamingFeatureExtractor):
    """``push`` / ``_release`` as they were: one ``sliding_window_view``
    framing, one ``np.concatenate`` of the static history and one
    ``np.hstack`` of ``compute_deltas`` over it per push."""

    def __init__(self, sample_rate=16000):
        super().__init__(sample_rate)
        self._static = np.zeros((0, N_COEFFICIENTS))

    def _cepstra(self, samples):
        window, bank, dct = _tables(self.sample_rate)
        hop = int(FRAME_HOP * self.sample_rate)
        if len(samples) < len(window):
            samples = np.pad(samples, (0, len(window) - len(samples)))
        frames = np.lib.stride_tricks.sliding_window_view(samples, len(window))[::hop]
        frames = frames * window
        n_fft = 1 << (len(window) - 1).bit_length()
        power = (np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2) / n_fft
        return np.log(np.maximum(power @ bank.T, 1e-12)) @ dct.T

    def push(self, samples):
        samples = np.asarray(samples, dtype=float).ravel()
        if len(samples):
            carried = len(self._samples)
            buffer = np.empty(carried + len(samples))
            buffer[:carried] = self._samples
            fresh = buffer[carried:]
            np.multiply(samples[:-1], PRE_EMPHASIS, out=fresh[1:])
            np.subtract(samples[1:], fresh[1:], out=fresh[1:])
            fresh[0] = samples[0]
            if self._prev_raw is not None:
                fresh[0] -= PRE_EMPHASIS * self._prev_raw
            self._prev_raw = float(samples[-1])
            self._samples = buffer
        n_ready = 1 + (len(self._samples) - self._frame_size) // self._hop
        if n_ready > 0:
            self._add_static(self._cepstra(self._samples))
            self._samples = self._samples[n_ready * self._hop :]
        return self._release(final=False)

    def _add_static(self, rows):
        self._static = np.concatenate([self._static, rows])
        self._n_static += len(rows)

    def _release(self, final):
        available = self._n_static - (0 if final else self.LOOKAHEAD)
        if available <= self._emitted:
            return np.zeros((0, DIMENSION))
        static = self._static
        low = self._n_static - len(static)
        full = np.hstack([static, oracle_compute_deltas(static)])
        rows = full[self._emitted - low : available - low]
        self._emitted = available
        self._static = static[max(available - self.LOOKAHEAD - low, 0) :]
        return rows

    def flush(self):
        if not self._n_static and len(self._samples):
            self._add_static(self._cepstra(self._samples))
            self._samples = np.zeros(0)
        return self._release(final=True)


class TestPushEqualsParent:
    """Every push's rows, byte for byte, against the body it replaced."""

    @pytest.fixture(scope="class")
    def waves(self):
        return [
            Synthesizer(seed=seed).synthesize(text).samples
            for seed, text in ((83, "set my alarm"), (84, "what is the capital of italy"))
        ]

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_every_push_is_byte_equal(self, waves, data):
        samples = data.draw(st.sampled_from(waves), label="utterance")
        # 0 is an empty push; lengths under 400 samples flush a sub-frame tail.
        sizes = data.draw(
            st.lists(st.one_of(st.just(0), st.integers(1, 5000)), min_size=1, max_size=6),
            label="chunk sizes",
        )
        length = data.draw(
            st.one_of(st.integers(0, 399), st.integers(0, len(samples))), label="samples"
        )
        samples = samples[: min(length, 200 * sum(sizes))]
        new, old = StreamingFeatureExtractor(), OracleStreamingFeatureExtractor()
        offset, index = 0, 0
        while offset < len(samples) or index < len(sizes):
            size = sizes[index % len(sizes)]
            chunk = samples[offset : offset + size]
            offset, index = offset + size, index + 1
            got, want = new.push(chunk), old.push(chunk)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got, want = new.flush(), old.flush()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert new._emitted == old._emitted
        assert new.flush().shape == (0, DIMENSION)


class TestExtractIsTheStream:
    """One MFCC front end: the batch call is the stream pushed whole."""

    def test_extract_is_push_all_then_flush_over_the_input_set(self):
        synthesizer = Synthesizer(seed=1)
        for sentence in all_sentences():
            wave = synthesizer.synthesize(sentence)
            stream = StreamingFeatureExtractor(wave.sample_rate)
            pushed = np.vstack([stream.push(wave.samples), stream.flush()])
            extracted = FeatureExtractor().extract(wave)
            assert extracted.shape == pushed.shape
            assert extracted.tobytes() == pushed.tobytes()
            # ... and both are the batch front end's bits.
            assert extracted.tobytes() == oracle_extract(wave).tobytes()


class TestStreamingDecoder:
    def test_final_matches_offline(self, decoder):
        synth = Synthesizer(seed=74)
        for sentence in SENTENCES:
            wave = synth.synthesize(sentence)
            offline = decoder.decode_waveform(wave).text
            streaming = StreamingDecoder(decoder)
            for start in range(0, len(wave.samples), 3200):
                streaming.feed(wave.samples[start : start + 3200])
            assert streaming.finish().text == offline == sentence

    def test_partials_grow_into_final(self, decoder):
        wave = Synthesizer(seed=75).synthesize("play some music now")
        streaming = StreamingDecoder(decoder)
        partials = []
        for start in range(0, len(wave.samples), 3200):
            streaming.feed(wave.samples[start : start + 3200])
            partials.append(streaming.partial())
        final = streaming.finish()
        assert final.text == "play some music now"
        assert any(p and final.text.startswith(p.split()[0]) for p in partials)

    def test_partial_before_audio_is_empty(self, decoder):
        streaming = StreamingDecoder(decoder)
        assert streaming.partial() == ""

    def test_feed_after_finish_rejected(self, decoder):
        wave = Synthesizer(seed=76).synthesize("set my alarm")
        streaming = StreamingDecoder(decoder)
        streaming.feed(wave.samples)
        streaming.finish()
        with pytest.raises(DecodingError):
            streaming.feed(np.zeros(100))

    def test_finish_without_audio_raises(self, decoder):
        streaming = StreamingDecoder(decoder)
        with pytest.raises(DecodingError):
            streaming.finish()

    def test_finish_idempotent(self, decoder):
        wave = Synthesizer(seed=77).synthesize("set my alarm")
        streaming = StreamingDecoder(decoder)
        streaming.feed(wave.samples)
        first = streaming.finish()
        second = streaming.finish()
        assert first.text == second.text

    def test_zero_length_feed_is_a_noop(self, decoder):
        wave = Synthesizer(seed=81).synthesize("set my alarm")
        streaming = StreamingDecoder(decoder)
        streaming.feed(np.zeros(0))
        streaming.feed(wave.samples)
        streaming.feed(np.zeros(0))
        assert streaming.finish().text == "set my alarm"


class TestUnifiedSearch:
    """Batch and streaming recognition drive the same ``ViterbiSearch``."""

    @pytest.fixture(scope="class")
    def emissions(self, decoder):
        wave = Synthesizer(seed=79).synthesize("what is the capital of italy")
        return decoder.acoustic_model.emission_scores(
            decoder.feature_extractor.extract(wave)
        )

    @pytest.mark.parametrize("beam", [None, 200.0])
    @pytest.mark.parametrize("n_best", [1, 4])
    @settings(deadline=None, max_examples=8)
    @given(data=st.data())
    def test_any_block_split_is_bit_identical(
        self, decoder, emissions, beam, n_best, data
    ):
        decoder = Decoder(
            decoder.acoustic_model, decoder.language_model, beam=beam
        )
        n = len(emissions)
        cuts = sorted(
            data.draw(st.sets(st.integers(0, n), max_size=8), label="cuts")
        )
        whole = ViterbiSearch(decoder)
        whole.advance(emissions)
        blocks = ViterbiSearch(decoder)
        bounds = [0, *cuts, n]
        for start, stop in zip(bounds, bounds[1:]):
            blocks.advance(emissions[start:stop])
        expected = whole.results(n_best)
        assert expected and len(expected) <= n_best
        # DecodeResult equality is exact: log_score, words and n_frames.
        assert blocks.results(n_best) == expected
        assert decoder._search(emissions, n_best) == expected

    def test_streaming_score_equals_decode_features(self, decoder):
        wave = Synthesizer(seed=80).synthesize("set my alarm for eight am")
        chunks = [
            wave.samples[start : start + 1600]
            for start in range(0, len(wave.samples), 1600)
        ]
        extractor = StreamingFeatureExtractor()
        rows = np.vstack([*(extractor.push(c) for c in chunks), extractor.flush()])
        streaming = StreamingDecoder(decoder)
        for chunk in chunks:
            streaming.feed(chunk)
        online = streaming.finish()
        offline = decoder.decode_features(rows)
        assert online.log_score == offline.log_score  # exact, not approx
        assert online == offline


class TestRechunkingInvariance:
    """Hypothesis: however the utterance is cut into chunks, the final
    transcript is identical and the emitted-partial count is monotone."""

    @settings(deadline=None, max_examples=6)
    @given(data=st.data())
    def test_final_transcript_and_partial_monotonicity(self, decoder, data):
        wave = Synthesizer(seed=78).synthesize("what is the capital of italy")
        n = len(wave.samples)
        cuts = sorted(
            data.draw(st.sets(st.integers(1, n - 1), max_size=6), label="cuts")
        )
        bounds = [0, *cuts, n]
        streaming = StreamingDecoder(decoder)
        emitted = []
        counts = []
        for start, stop in zip(bounds, bounds[1:]):
            streaming.feed(wave.samples[start:stop])
            partial = streaming.partial()
            if partial and (not emitted or partial != emitted[-1]):
                emitted.append(partial)
            counts.append(len(emitted))
        assert counts == sorted(counts)
        assert streaming.finish().text == decoder.decode_waveform(wave).text
