"""Energy-based voice activity detection (VAD).

IPAs run a cheap VAD ahead of the recognizer: it gates what audio is sent
to the server (the paper's mobile side sends *compressed recordings of
voice commands*, not an open microphone).  This detector tracks frame
energy against an adaptive noise floor with hangover smoothing, and can
trim or segment a waveform.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.asr.audio import Waveform
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class VADConfig:
    """Detector parameters."""

    frame_length: float = 0.02     # seconds per analysis frame
    threshold_db: float = 9.0      # speech must exceed floor by this much
    hangover_frames: int = 5       # frames speech persists after energy drops
    floor_percentile: float = 20.0  # noise-floor estimate percentile
    #: Ceiling on the estimated noise floor: recordings that are wall-to-wall
    #: speech have no quiet frames, so the percentile alone would sit inside
    #: the speech band and suppress everything.
    max_floor_db: float = -35.0

    def __post_init__(self) -> None:
        if self.frame_length <= 0:
            raise ConfigurationError("frame_length must be positive")
        if self.hangover_frames < 0:
            raise ConfigurationError("hangover_frames must be >= 0")
        if not 0 < self.floor_percentile < 100:
            raise ConfigurationError("floor_percentile must be in (0, 100)")


@dataclass(frozen=True)
class SpeechSegment:
    """One detected speech region, in seconds."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class VoiceActivityDetector:
    """Adaptive energy VAD over fixed frames."""

    def __init__(self, config: VADConfig = VADConfig()):
        self.config = config

    def frame_energies_db(self, waveform: Waveform) -> np.ndarray:
        """Per-frame RMS energy in dB (floored at -100 dB)."""
        size = max(int(self.config.frame_length * waveform.sample_rate), 1)
        n_frames = max(len(waveform.samples) // size, 1)
        trimmed = waveform.samples[: n_frames * size]
        frames = trimmed.reshape(n_frames, size) if len(trimmed) >= size else np.zeros((1, size))
        rms = np.sqrt((frames**2).mean(axis=1))
        return 20.0 * np.log10(np.maximum(rms, 1e-5))

    def speech_mask(self, waveform: Waveform) -> np.ndarray:
        """Boolean per-frame speech/silence decision with hangover."""
        energies = self.frame_energies_db(waveform)
        floor = min(
            float(np.percentile(energies, self.config.floor_percentile)),
            self.config.max_floor_db,
        )
        raw = energies > floor + self.config.threshold_db
        mask = raw.copy()
        hang = 0
        for index in range(len(raw)):
            if raw[index]:
                hang = self.config.hangover_frames
            elif hang > 0:
                mask[index] = True
                hang -= 1
        return mask

    def segments(self, waveform: Waveform) -> List[SpeechSegment]:
        """Contiguous speech regions, in seconds."""
        mask = self.speech_mask(waveform)
        frame_seconds = self.config.frame_length
        result: List[SpeechSegment] = []
        start = None
        for index, active in enumerate(mask):
            if active and start is None:
                start = index
            elif not active and start is not None:
                result.append(SpeechSegment(start * frame_seconds, index * frame_seconds))
                start = None
        if start is not None:
            result.append(SpeechSegment(start * frame_seconds, len(mask) * frame_seconds))
        return result

    def trim(self, waveform: Waveform, padding: float = 0.05) -> Waveform:
        """Waveform cut to [first speech - padding, last speech + padding].

        Returns the input unchanged when no speech is detected.
        """
        found = self.segments(waveform)
        if not found:
            return waveform
        start = max(found[0].start - padding, 0.0)
        end = min(found[-1].end + padding, waveform.duration)
        lo = int(start * waveform.sample_rate)
        hi = max(int(end * waveform.sample_rate), lo + 1)
        return Waveform(waveform.samples[lo:hi], waveform.sample_rate)

    def speech_fraction(self, waveform: Waveform) -> float:
        """Fraction of frames judged to be speech."""
        mask = self.speech_mask(waveform)
        return float(mask.mean()) if len(mask) else 0.0


@dataclass(frozen=True)
class EndpointConfig:
    """Parameters of the streaming endpointer.

    ``vad`` supplies the frame/threshold/floor model shared with the batch
    detector; ``min_trailing_silence`` is how many consecutive non-speech
    frames (after speech has been heard) close the utterance — the classic
    endpointing hangover, distinct from the batch detector's smoothing
    hangover.
    """

    vad: VADConfig = VADConfig()
    min_trailing_silence: int = 15  # frames (0.02 s each → 300 ms)

    def __post_init__(self) -> None:
        if self.min_trailing_silence < 1:
            raise ConfigurationError("min_trailing_silence must be >= 1")


class StreamingEndpointer:
    """Causal utterance endpointing over arriving audio chunks.

    The gateway feeds every chunk through :meth:`push` and polls
    :attr:`endpointed`; the decision is *when to finalize*, never which
    audio to decode — the decoder always sees the full stream, so
    endpointing cannot perturb the transcript (the streaming-equivalence
    guarantee in ``docs/STREAMING.md``).

    The detector is the causal twin of :class:`VoiceActivityDetector`: per
    20 ms frame RMS energy against an adaptive floor (the running
    ``floor_percentile`` of all energies heard so far, capped at
    ``max_floor_db``).  Speech raises the trigger; ``min_trailing_silence``
    consecutive quiet frames after speech mark the endpoint.  Deterministic:
    decisions depend only on the samples, never on wall time.

    The energies are kept in sorted order (one ``insort`` per frame) and the
    floor is read from them by index with numpy's own linear-method
    arithmetic, so it is bit-equal to ``np.percentile(energies_so_far,
    floor_percentile)`` at every frame without re-partitioning the history
    (``tests/test_asr_vad.py::TestIncrementalFloor`` holds it to ``==``).
    Once endpointed, further audio is ignored, not buffered.
    """

    def __init__(self, config: EndpointConfig = EndpointConfig(),
                 sample_rate: int = 16000):
        self.config = config
        self.sample_rate = sample_rate
        self._frame = max(int(config.vad.frame_length * sample_rate), 1)
        self.reset()

    def reset(self) -> None:
        """Forget all audio (new utterance on the same channel)."""
        self._buffer = np.zeros(0)
        self._sorted: List[float] = []   # every frame energy so far, ascending
        self.speech_started = False
        self.endpointed = False
        self._trailing_silence = 0

    @property
    def frames_seen(self) -> int:
        return len(self._sorted)

    def _floor(self) -> float:
        """``np.percentile(energies, floor_percentile)`` off the sorted list:
        numpy's ``linear`` method, two-sided lerp included."""
        last = len(self._sorted) - 1
        virtual = last * (self.config.vad.floor_percentile / 100)
        low = int(virtual)
        below, above = self._sorted[low], self._sorted[min(low + 1, last)]
        t = virtual - low
        if t < 0.5:
            return below + (above - below) * t
        return above - (above - below) * (1 - t)

    def push(self, samples: np.ndarray) -> bool:
        """Add audio; returns the (possibly just-flipped) endpoint flag."""
        if self.endpointed:
            return True
        samples = np.asarray(samples, dtype=float).ravel()
        if len(samples):
            self._buffer = np.concatenate([self._buffer, samples])
        n_frames = len(self._buffer) // self._frame
        if n_frames == 0:
            return False
        frames = self._buffer[: n_frames * self._frame].reshape(
            n_frames, self._frame
        )
        self._buffer = self._buffer[n_frames * self._frame :]
        rms = np.sqrt((frames**2).mean(axis=1))
        vad = self.config.vad
        for energy in (20.0 * np.log10(np.maximum(rms, 1e-5))).tolist():
            insort(self._sorted, energy)
            floor = min(self._floor(), vad.max_floor_db)
            if energy > floor + vad.threshold_db:
                self.speech_started = True
                self._trailing_silence = 0
            elif self.speech_started:
                self._trailing_silence += 1
                if self._trailing_silence >= self.config.min_trailing_silence:
                    self.endpointed = True
                    break
        return self.endpointed
