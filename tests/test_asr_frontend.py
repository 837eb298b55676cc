"""Tests for ASR front-end pieces: phonemes, audio synthesis, MFCC features."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asr import SAMPLE_RATE, FeatureExtractor, Synthesizer, Waveform
from repro.asr.features import (
    DELTA_WINDOW,
    DIMENSION,
    FRAME_HOP,
    FRAME_LENGTH,
    HIGH_FREQ,
    LOW_FREQ,
    N_COEFFICIENTS,
    N_FILTERS,
    PRE_EMPHASIS,
    dct_matrix,
    frame_signal,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    regression_deltas,
)
from repro.asr.phonemes import (
    EXCEPTIONS,
    N_PHONEMES,
    PHONEMES,
    PHONEME_BY_SYMBOL,
    grapheme_to_phonemes,
    pronounce,
)
from repro.errors import ConfigurationError


class TestPhonemes:
    def test_inventory_unique_symbols(self):
        symbols = [p.symbol for p in PHONEMES]
        assert len(symbols) == len(set(symbols)) == N_PHONEMES

    def test_exception_pronunciations_valid(self):
        for word, symbols in EXCEPTIONS.items():
            assert symbols, word
            for symbol in symbols:
                assert symbol in PHONEME_BY_SYMBOL, (word, symbol)

    def test_g2p_covers_any_word(self):
        for word in ["xylophone", "rhythm", "quick", "jazz"]:
            symbols = grapheme_to_phonemes(word)
            assert symbols
            assert all(s in PHONEME_BY_SYMBOL for s in symbols)

    def test_pronounce_uses_exceptions(self):
        assert pronounce("the") == ["TH", "AH"]

    def test_pronounce_numbers(self):
        symbols = pronounce("44")
        assert symbols == pronounce("4") + pronounce("4")

    def test_g2p_digraphs(self):
        assert grapheme_to_phonemes("ship")[0] == "SH"
        assert grapheme_to_phonemes("chat")[0] == "CH"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    def test_pronounce_total_on_alpha_words(self, word):
        for symbol in pronounce(word):
            assert symbol in PHONEME_BY_SYMBOL


class TestSynthesizer:
    def test_waveform_shape_and_range(self):
        wave = Synthesizer().synthesize("set my alarm")
        assert wave.sample_rate == SAMPLE_RATE
        assert wave.duration > 0.5
        assert np.abs(wave.samples).max() < 2.0

    def test_deterministic_for_seed(self):
        a = Synthesizer(seed=5).synthesize("hello world")
        b = Synthesizer(seed=5).synthesize("hello world")
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = Synthesizer(seed=5).synthesize("hello")
        b = Synthesizer(seed=6).synthesize("hello")
        assert not np.array_equal(a.samples, b.samples)

    def test_empty_text(self):
        wave = Synthesizer().synthesize("")
        assert len(wave) == 1

    def test_alignment_covers_waveform(self):
        wave, alignment = Synthesizer().aligned_synthesize("set my alarm")
        assert alignment
        # Alignments are ordered, non-overlapping, within bounds.
        previous_end = 0
        for symbol, start, end in alignment:
            assert start >= previous_end
            assert end > start
            previous_end = end
        assert previous_end <= len(wave)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Synthesizer(noise_level=-1)

    def test_waveform_validation(self):
        with pytest.raises(ConfigurationError):
            Waveform(np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            Waveform(np.zeros(4), sample_rate=0)


class TestMelScale:
    def test_roundtrip(self):
        for hz in [100.0, 440.0, 1000.0, 7000.0]:
            assert mel_to_hz(hz_to_mel(hz)) == pytest.approx(hz)

    def test_monotone(self):
        values = hz_to_mel(np.array([100.0, 500.0, 1000.0, 4000.0]))
        assert np.all(np.diff(values) > 0)


class TestFraming:
    def test_frame_count(self):
        frames = frame_signal(np.zeros(1000), frame_size=400, hop=160)
        assert frames.shape == (4, 400)

    def test_short_signal_padded(self):
        frames = frame_signal(np.ones(10), frame_size=400, hop=160)
        assert frames.shape == (1, 400)
        assert frames[0, :10].sum() == 10

    def test_overlap_content(self):
        signal = np.arange(500, dtype=float)
        frames = frame_signal(signal, frame_size=300, hop=100)
        assert frames[1, 0] == 100.0

    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(0, 2000),
        frame_size=st.integers(1, 400),
        hop=st.integers(1, 200),
        step=st.sampled_from([1, 2, 3]),
    )
    def test_strided_view_equals_the_sliding_window_view(self, n, frame_size, hop, step):
        """The ``sliding_window_view(...)[::hop]`` framing it replaced, on
        contiguous and strided signals."""
        samples = np.random.default_rng(n).normal(size=n * step)[::step]
        frames = frame_signal(samples, frame_size, hop)
        if len(samples) < frame_size:
            samples = np.pad(samples, (0, frame_size - len(samples)))
        expected = np.lib.stride_tricks.sliding_window_view(samples, frame_size)[::hop]
        assert frames.shape == expected.shape
        assert frames.tobytes() == expected.tobytes()
        assert not frames.flags.writeable


class TestDCTAndDeltas:
    def test_dct_orthonormal_rows(self):
        matrix = dct_matrix(13, 26)
        gram = matrix @ matrix.T
        assert np.allclose(gram, np.eye(13), atol=1e-10)

    @staticmethod
    def _deltas(features):
        padded = np.pad(features, ((DELTA_WINDOW, DELTA_WINDOW), (0, 0)), mode="edge")
        return regression_deltas(padded, np.zeros_like(features))

    def test_deltas_zero_for_constant(self):
        features = np.ones((10, 4))
        assert np.allclose(self._deltas(features), 0.0)

    def test_deltas_positive_for_increasing(self):
        features = np.arange(20, dtype=float)[:, None]
        deltas = self._deltas(features)
        assert np.all(deltas[3:-3] > 0)


class TestFilterbank:
    def test_shape(self):
        bank = mel_filterbank(26, 512, SAMPLE_RATE, 100.0, 7000.0)
        assert bank.shape == (26, 257)

    def test_filters_nonnegative_and_nonempty(self):
        bank = mel_filterbank(26, 512, SAMPLE_RATE, 100.0, 7000.0)
        assert (bank >= 0).all()
        assert (bank.sum(axis=1) > 0).all()


class TestFeatureExtractor:
    def test_output_shape(self):
        extractor = FeatureExtractor()
        wave = Synthesizer().synthesize("hello world")
        features = extractor.extract(wave)
        assert features.shape[1] == DIMENSION
        frame_size = int(FRAME_LENGTH * wave.sample_rate)
        hop = int(FRAME_HOP * wave.sample_rate)
        assert features.shape[0] == 1 + max(len(wave) - frame_size, 0) // hop

    def test_features_finite(self):
        features = FeatureExtractor().extract(Synthesizer().synthesize("test words"))
        assert np.isfinite(features).all()

    def test_distinct_phonemes_distinct_features(self):
        # Spectrally distant phonemes must separate in MFCC space.
        synth = Synthesizer(noise_level=0.0)
        extractor = FeatureExtractor()
        static = slice(0, N_COEFFICIENTS)
        iy = extractor.extract(synth.synthesize_phoneme_sequence(["IY"] * 5))[:, static].mean(axis=0)
        aa = extractor.extract(synth.synthesize_phoneme_sequence(["AA"] * 5))[:, static].mean(axis=0)
        assert np.linalg.norm(iy - aa) > 1.0

    def test_config_validation(self):
        # The front end's one configuration is a valid one.
        assert FRAME_LENGTH > 0 and FRAME_HOP > 0
        assert N_COEFFICIENTS <= N_FILTERS
        assert 0 <= PRE_EMPHASIS < 1
        assert 0 < LOW_FREQ < HIGH_FREQ
