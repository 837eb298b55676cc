"""Tests for voice activity detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asr import SAMPLE_RATE, Synthesizer, Waveform
from repro.asr.vad import (
    EndpointConfig,
    SpeechSegment,
    StreamingEndpointer,
    VADConfig,
    VoiceActivityDetector,
)
from repro.errors import ConfigurationError


def _with_silence(wave, lead=0.5, tail=0.5, noise=0.003, seed=0):
    """Pad speech with noisy silence on both sides."""
    rng = np.random.default_rng(seed)
    lead_samples = rng.normal(0, noise, int(lead * wave.sample_rate))
    tail_samples = rng.normal(0, noise, int(tail * wave.sample_rate))
    return Waveform(
        np.concatenate([lead_samples, wave.samples, tail_samples]),
        wave.sample_rate,
    )


@pytest.fixture(scope="module")
def detector():
    return VoiceActivityDetector()


class TestVAD:
    def test_detects_speech_in_padded_audio(self, detector):
        speech = Synthesizer(seed=1).synthesize("set my alarm for eight am")
        padded = _with_silence(speech)
        segments = detector.segments(padded)
        assert segments
        # Speech should begin near the 0.5 s mark.
        assert abs(segments[0].start - 0.5) < 0.25

    def test_silence_has_low_speech_fraction(self, detector):
        rng = np.random.default_rng(2)
        silence = Waveform(rng.normal(0, 0.002, 2 * SAMPLE_RATE))
        assert detector.speech_fraction(silence) < 0.5

    def test_speech_has_high_fraction(self, detector):
        speech = Synthesizer(seed=3).synthesize("what is the capital of italy")
        assert detector.speech_fraction(speech) > 0.6

    def test_trim_removes_padding(self, detector):
        speech = Synthesizer(seed=4).synthesize("play some music")
        padded = _with_silence(speech, lead=1.0, tail=1.0)
        trimmed = detector.trim(padded)
        assert trimmed.duration < padded.duration
        assert trimmed.duration >= speech.duration * 0.6

    def test_trimmed_audio_still_decodable(self, detector):
        from repro.asr import (
            BigramLanguageModel,
            Decoder,
            collect_training_data,
            train_gmm_acoustic_model,
        )

        sentences = ["play some music now"]
        data = collect_training_data(sentences, repetitions=3)
        decoder = Decoder(train_gmm_acoustic_model(data), BigramLanguageModel(sentences))
        speech = Synthesizer(seed=5).synthesize(sentences[0])
        padded = _with_silence(speech, seed=5)
        trimmed = detector.trim(padded, padding=0.1)
        assert decoder.decode_waveform(trimmed).text == sentences[0]

    def test_trim_on_pure_silence_is_noop_or_short(self, detector):
        rng = np.random.default_rng(6)
        silence = Waveform(rng.normal(0, 0.001, SAMPLE_RATE))
        trimmed = detector.trim(silence)
        assert len(trimmed) <= len(silence)

    def test_segment_duration(self):
        segment = SpeechSegment(0.5, 1.25)
        assert segment.duration == pytest.approx(0.75)

    def test_mask_length_matches_frames(self, detector):
        wave = Synthesizer(seed=7).synthesize("set")
        mask = detector.speech_mask(wave)
        energies = detector.frame_energies_db(wave)
        assert len(mask) == len(energies)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            VADConfig(frame_length=0)
        with pytest.raises(ConfigurationError):
            VADConfig(hangover_frames=-1)
        with pytest.raises(ConfigurationError):
            VADConfig(floor_percentile=100.0)

    def test_hangover_bridges_short_gaps(self):
        eager = VoiceActivityDetector(VADConfig(hangover_frames=0))
        patient = VoiceActivityDetector(VADConfig(hangover_frames=10))
        speech = Synthesizer(seed=8).synthesize("set my alarm for eight am")
        padded = _with_silence(speech, seed=8)
        assert len(patient.segments(padded)) <= len(eager.segments(padded))


# -- the streaming endpointer's incremental floor -------------------------------

#: 20 ms frames of 20 samples keep the property tests quick.
ENDPOINT_RATE = 1000
ENDPOINT_FRAME = 20


def reference_endpoint(samples, config):
    """The per-frame loop the incremental floor replaced, kept as the oracle:
    ``np.percentile`` over the whole energy history at every frame.  Returns
    the floor after each frame consumed and the frame index at which the
    endpoint flipped (``None`` if it never did)."""
    n_frames = len(samples) // ENDPOINT_FRAME
    frames = samples[: n_frames * ENDPOINT_FRAME].reshape(n_frames, ENDPOINT_FRAME)
    energies = 20.0 * np.log10(np.maximum(np.sqrt((frames**2).mean(axis=1)), 1e-5))
    history, floors = [], []
    speech_started, trailing = False, 0
    for energy in energies:
        history.append(float(energy))
        floors.append(float(np.percentile(history, config.vad.floor_percentile)))
        if energy > min(floors[-1], config.vad.max_floor_db) + config.vad.threshold_db:
            speech_started, trailing = True, 0
        elif speech_started:
            trailing += 1
            if trailing >= config.min_trailing_silence:
                return floors, len(history) - 1
    return floors, None


#: Frame amplitudes: digital silence (the -100 dB clamp), values repeated often
#: enough to tie, and arbitrary levels in between.
amplitudes = st.one_of(
    st.sampled_from([0.0, 1e-6, 1e-5, 0.002, 0.05, 0.3]),
    st.floats(0.0, 1.0, allow_nan=False),
)


class TestIncrementalFloor:
    @settings(deadline=None, max_examples=150)
    @given(
        levels=st.lists(amplitudes, min_size=1, max_size=90),
        percentile=st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
        trailing=st.integers(1, 20),
        tail=st.integers(0, 25),  # frames of digital silence, so endpoints do fire
        data=st.data(),
    )
    def test_floor_and_endpoint_equal_the_batch_percentile_loop(
        self, levels, percentile, trailing, tail, data
    ):
        config = EndpointConfig(
            vad=VADConfig(floor_percentile=percentile), min_trailing_silence=trailing
        )
        samples = np.repeat(levels + [0.0] * tail, ENDPOINT_FRAME)
        floors, flip = reference_endpoint(samples, config)
        cuts = data.draw(st.sets(st.integers(0, len(samples)), max_size=15), label="cuts")
        arbitrary = [0, *sorted(cuts), len(samples)]
        per_frame = list(range(0, len(samples) + 1, ENDPOINT_FRAME))
        for bounds in (per_frame, arbitrary):
            endpointer = StreamingEndpointer(config, sample_rate=ENDPOINT_RATE)
            flipped = None
            for low, high in zip(bounds, bounds[1:]):
                before = endpointer.frames_seen
                if endpointer.push(samples[low:high]) and flipped is None:
                    flipped = endpointer.frames_seen - 1
                seen = endpointer.frames_seen
                if seen > before:
                    assert endpointer._floor() == floors[seen - 1]  # ==, to the bit
            assert flipped == flip
            assert endpointer.endpointed == (flip is not None)
            assert endpointer.frames_seen == len(floors)


class TestLateAudio:
    def test_endpointed_endpointer_ignores_late_audio(self):
        rng = np.random.default_rng(6)
        speech = Synthesizer(seed=6).synthesize("play some music")
        endpointer = StreamingEndpointer()
        assert endpointer.push(np.concatenate([speech.samples, np.zeros(SAMPLE_RATE)]))
        seen = endpointer.frames_seen
        for _ in range(100):
            assert endpointer.push(rng.normal(0, 0.3, 777)) is True
        assert len(endpointer._buffer) < int(0.02 * SAMPLE_RATE)
        assert endpointer.frames_seen == seen and endpointer.endpointed
