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
from repro.asr.features import compute_deltas
from repro.asr.streaming import StreamingDecoder, StreamingFeatureExtractor
from repro.errors import DecodingError

SENTENCES = [
    "set my alarm for eight am",
    "what is the capital of italy",
    "play some music now",
]


@pytest.fixture(scope="module")
def decoder():
    data = collect_training_data(SENTENCES, repetitions=3)
    return Decoder(train_gmm_acoustic_model(data), BigramLanguageModel(SENTENCES))


class TestStreamingFeatures:
    def _compare(self, wave, chunk_size):
        offline = FeatureExtractor().extract(wave)
        streaming = StreamingFeatureExtractor(FeatureExtractor().config)
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
        streaming = StreamingFeatureExtractor(FeatureExtractor().config)
        rows = [streaming.push(wave.samples[a:b]) for a, b in zip(bounds, bounds[1:])]
        online = np.vstack([*rows, streaming.flush()])
        static = online[:, : online.shape[1] // 2]
        assert len(online) == len(FeatureExtractor().extract(wave))
        assert online[:, static.shape[1] :].tobytes() == compute_deltas(static).tobytes()

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.sampled_from([1, 2, 3, 5, 50]),
        window=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_deltas_equal_the_np_pad_formulation(self, rows, window, seed):
        """``compute_deltas`` pads by repeating the edge rows itself; the
        ``np.pad(mode="edge")`` formulation it replaced is the reference."""
        features = np.random.default_rng(seed).normal(0, 3, (rows, 13))
        padded = np.pad(features, ((window, window), (0, 0)), mode="edge")
        numerator = np.zeros_like(features)
        for offset in range(1, window + 1):
            numerator += offset * (
                padded[window + offset : window + offset + rows]
                - padded[window - offset : window - offset + rows]
            )
        reference = numerator / (2.0 * sum(o**2 for o in range(1, window + 1)))
        assert compute_deltas(features, window).tobytes() == reference.tobytes()

    def test_held_rows_are_constant_in_utterance_length(self, monkeypatch):
        """Ten seconds in 100 ms pushes: the static rows held never exceed the
        delta context plus one push's worth, and less than one frame window
        of samples waits between pushes."""
        from repro.asr import streaming as module

        held = []
        monkeypatch.setattr(
            module, "compute_deltas",
            lambda static: held.append(len(static)) or compute_deltas(static),
        )
        config = FeatureExtractor().config
        streaming = StreamingFeatureExtractor(config)
        audio = np.random.default_rng(9).normal(0, 0.1, 10 * 16000)
        chunk, hop, frame = 1600, int(config.frame_hop * 16000), int(config.frame_length * 16000)
        emitted = 0
        for start in range(0, len(audio), chunk):
            emitted += len(streaming.push(audio[start : start + chunk]))
            assert len(streaming._static) <= 2 * streaming.LOOKAHEAD
            assert len(streaming._samples) < frame
        emitted += len(streaming.flush())
        assert emitted == len(FeatureExtractor().extract(Waveform(audio)))
        assert max(held) <= 2 * streaming.LOOKAHEAD + chunk // hop

    def test_empty_pushes_are_noops(self):
        streaming = StreamingFeatureExtractor(FeatureExtractor().config)
        assert streaming.push(np.zeros(0)).shape[0] == 0
        assert streaming.flush().shape[0] >= 0

    def test_sub_frame_utterance_flush_pads(self):
        """Regression: a whole utterance shorter than one analysis frame
        must still produce the same (padded) frames the offline extractor
        computes, not crash or emit nothing."""
        extractor = FeatureExtractor()
        frame_size = int(extractor.config.frame_length * 16000)
        wave = Synthesizer(seed=79).synthesize("set")
        short = Waveform(wave.samples[: frame_size // 2], wave.sample_rate)
        offline = extractor.extract(short)
        streaming = StreamingFeatureExtractor(extractor.config)
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
        streaming = StreamingFeatureExtractor(FeatureExtractor().config)
        wave = Synthesizer(seed=73).synthesize("set")
        # Push exactly enough for 3 frames; only 1 should be emitted
        # (2 held back as delta lookahead).
        frame_size = int(0.025 * 16000)
        hop = int(0.010 * 16000)
        emitted = streaming.push(wave.samples[: frame_size + 2 * hop])
        assert len(emitted) == 1


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
        extractor = StreamingFeatureExtractor(decoder.feature_extractor.config)
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
