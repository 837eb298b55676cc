"""Waveform container and the formant speech synthesizer.

We have no speech recordings, so the voice front-end is driven by synthetic
speech: each phoneme is rendered as a sum of sinusoids at its formant
frequencies (voiced) or band-shaped noise (unvoiced), with jitter in duration,
pitch, and amplitude per utterance.  The synthesizer and the recognizer share
the phoneme inventory but are otherwise independent — recognition has to
recover the text from the waveform through the full MFCC/GMM(or DNN)/HMM
path, which is the compute pipeline the paper profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.asr.phonemes import PHONEME_BY_SYMBOL, Phoneme, pronounce
from repro.errors import ConfigurationError

SAMPLE_RATE = 16000
#: Mean seconds per phoneme (each rendering jitters it ±20%).
PHONE_DURATION = 0.10


@dataclass(frozen=True)
class Waveform:
    """Mono PCM audio: float64 samples in [-1, 1] plus a sample rate."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self) -> None:
        if self.samples.ndim != 1:
            raise ConfigurationError("waveform must be 1-D")
        if self.sample_rate <= 0:
            raise ConfigurationError("sample rate must be positive")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


class Synthesizer:
    """Formant synthesizer turning text into a :class:`Waveform`.

    Each phoneme lasts ``PHONE_DURATION`` seconds, jittered ±20%.

    Parameters
    ----------
    noise_level:
        Standard deviation of additive white noise, relative to signal.
    seed:
        Seed for the per-instance jitter; two calls with the same seed and
        text produce identical audio.
    """

    def __init__(
        self,
        noise_level: float = 0.02,
        seed: int = 1234,
    ):
        if noise_level < 0:
            raise ConfigurationError("noise_level must be >= 0")
        self.noise_level = noise_level
        self._rng = np.random.default_rng(seed)

    def synthesize_phoneme(self, phoneme: Phoneme, duration: Optional[float] = None) -> np.ndarray:
        """Render one phoneme to samples."""
        duration = duration if duration is not None else PHONE_DURATION
        n = max(int(duration * SAMPLE_RATE), 1)
        t = np.arange(n) / SAMPLE_RATE
        signal = np.zeros(n, dtype=np.float64)
        amplitudes = (1.0, 0.7, 0.4)
        if phoneme.voiced:
            for formant, amplitude in zip(phoneme.formants, amplitudes):
                jittered = formant * (1.0 + self._rng.normal(0.0, 0.01))
                phase = self._rng.uniform(0.0, 2.0 * np.pi)
                signal += amplitude * np.sin(2.0 * np.pi * jittered * t + phase)
        else:
            # Unvoiced: modulated noise concentrated near the formants.
            noise = self._rng.normal(0.0, 1.0, n)
            for formant, amplitude in zip(phoneme.formants, amplitudes):
                carrier = np.sin(2.0 * np.pi * formant * t)
                signal += amplitude * noise * carrier
        # Attack/decay envelope avoids clicks at phone boundaries.
        envelope = np.minimum(1.0, np.minimum(np.arange(n), np.arange(n)[::-1]) / (0.01 * SAMPLE_RATE))
        signal *= envelope
        peak = np.abs(signal).max()
        if peak > 0:
            signal /= peak * 1.25
        return signal

    def synthesize_phoneme_sequence(self, symbols: Sequence[str]) -> Waveform:
        pieces: List[np.ndarray] = []
        for symbol in symbols:
            phoneme = PHONEME_BY_SYMBOL[symbol]
            duration = PHONE_DURATION * float(self._rng.uniform(0.8, 1.2))
            pieces.append(self.synthesize_phoneme(phoneme, duration))
        if not pieces:
            return Waveform(np.zeros(1))
        samples = np.concatenate(pieces)
        if self.noise_level > 0:
            samples = samples + self._rng.normal(0.0, self.noise_level, len(samples))
        return Waveform(samples)

    def synthesize(self, text: str) -> Waveform:
        """Render a sentence; a short pause separates words.

        >>> wave = Synthesizer().synthesize("set my alarm")
        >>> wave.duration > 0.5
        True
        """
        pieces: List[np.ndarray] = []
        pause = np.zeros(int(0.03 * SAMPLE_RATE))
        for word in text.split():
            symbols = pronounce(word)
            if not symbols:
                continue
            wave = self.synthesize_phoneme_sequence(symbols)
            pieces.append(wave.samples)
            pieces.append(pause)
        if not pieces:
            return Waveform(np.zeros(1))
        return Waveform(np.concatenate(pieces))

    def aligned_synthesize(self, text: str):
        """Synthesize and return (waveform, [(phoneme_symbol, start, end)]).

        Sample-accurate alignments let the acoustic-model trainer label
        frames with their generating phoneme without running recognition.
        """
        pieces: List[np.ndarray] = []
        alignment: List[tuple] = []
        pause = np.zeros(int(0.03 * SAMPLE_RATE))
        cursor = 0
        for word in text.split():
            for symbol in pronounce(word):
                phoneme = PHONEME_BY_SYMBOL[symbol]
                duration = PHONE_DURATION * float(self._rng.uniform(0.8, 1.2))
                samples = self.synthesize_phoneme(phoneme, duration)
                alignment.append((symbol, cursor, cursor + len(samples)))
                pieces.append(samples)
                cursor += len(samples)
            pieces.append(pause)
            cursor += len(pause)
        if not pieces:
            return Waveform(np.zeros(1)), []
        samples = np.concatenate(pieces)
        if self.noise_level > 0:
            samples = samples + self._rng.normal(0.0, self.noise_level, len(samples))
        return Waveform(samples), alignment
