"""Tests for voice activity detection: the streaming endpointer."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.asr import SAMPLE_RATE, Synthesizer
from repro.asr.vad import (
    FLOOR_PERCENTILE,
    MAX_FLOOR_DB,
    MIN_TRAILING_SILENCE,
    THRESHOLD_DB,
    StreamingEndpointer,
)


# -- the streaming endpointer's incremental floor -------------------------------

#: 20 ms frames of 20 samples keep the property tests quick.
ENDPOINT_RATE = 1000
ENDPOINT_FRAME = 20


def reference_endpoint(samples):
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
        floors.append(float(np.percentile(history, FLOOR_PERCENTILE)))
        if energy > min(floors[-1], MAX_FLOOR_DB) + THRESHOLD_DB:
            speech_started, trailing = True, 0
        elif speech_started:
            trailing += 1
            if trailing >= MIN_TRAILING_SILENCE:
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
        tail=st.integers(0, 25),  # frames of digital silence, so endpoints do fire
        data=st.data(),
    )
    def test_floor_and_endpoint_equal_the_batch_percentile_loop(self, levels, tail, data):
        samples = np.repeat(levels + [0.0] * tail, ENDPOINT_FRAME)
        floors, flip = reference_endpoint(samples)
        cuts = data.draw(st.sets(st.integers(0, len(samples)), max_size=15), label="cuts")
        arbitrary = [0, *sorted(cuts), len(samples)]
        per_frame = list(range(0, len(samples) + 1, ENDPOINT_FRAME))
        for bounds in (per_frame, arbitrary):
            endpointer = StreamingEndpointer(sample_rate=ENDPOINT_RATE)
            flipped = None
            for low, high in zip(bounds, bounds[1:]):
                before = len(endpointer._sorted)
                if endpointer.push(samples[low:high]) and flipped is None:
                    flipped = len(endpointer._sorted) - 1
                seen = len(endpointer._sorted)
                if seen > before:
                    assert endpointer._floor() == floors[seen - 1]  # ==, to the bit
            assert flipped == flip
            assert endpointer.endpointed == (flip is not None)
            assert len(endpointer._sorted) == len(floors)


class TestLateAudio:
    def test_endpointed_endpointer_ignores_late_audio(self):
        rng = np.random.default_rng(6)
        speech = Synthesizer(seed=6).synthesize("play some music")
        endpointer = StreamingEndpointer()
        assert endpointer.push(np.concatenate([speech.samples, np.zeros(SAMPLE_RATE)]))
        seen = len(endpointer._sorted)
        for _ in range(100):
            assert endpointer.push(rng.normal(0, 0.3, 777)) is True
        assert len(endpointer._buffer) < int(0.02 * SAMPLE_RATE)
        assert len(endpointer._sorted) == seen and endpointer.endpointed
