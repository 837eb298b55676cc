"""MFCC feature extraction — the ASR front-end (paper Figure 4, left box).

Standard pipeline: pre-emphasis → 25 ms Hamming frames at 10 ms hop → power
spectrum → mel filterbank → log → DCT-II → first ``n_coefficients`` cepstra,
optionally with delta features appended.  Implemented directly on numpy so
the whole front-end is self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.asr.audio import Waveform
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FeatureConfig:
    """Front-end parameters; defaults match common ASR setups."""

    frame_length: float = 0.025   # seconds
    frame_hop: float = 0.010      # seconds
    n_filters: int = 26
    n_coefficients: int = 13
    pre_emphasis: float = 0.97
    low_freq: float = 100.0
    high_freq: float = 7000.0
    add_deltas: bool = True
    cmvn: bool = False  # per-utterance cepstral mean-variance normalization

    def __post_init__(self) -> None:
        if self.frame_length <= 0 or self.frame_hop <= 0:
            raise ConfigurationError("frame length/hop must be positive")
        if self.n_coefficients > self.n_filters:
            raise ConfigurationError("need n_coefficients <= n_filters")
        if not 0 <= self.pre_emphasis < 1:
            raise ConfigurationError("pre_emphasis must be in [0, 1)")
        if not 0 < self.low_freq < self.high_freq:
            raise ConfigurationError("require 0 < low_freq < high_freq")

    @property
    def dimension(self) -> int:
        """Final feature dimension (doubles when deltas are appended)."""
        return self.n_coefficients * (2 if self.add_deltas else 1)


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=float) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=float) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, n_fft: int, sample_rate: int, low: float, high: float) -> np.ndarray:
    """(n_filters, n_fft//2+1) triangular filters evenly spaced on the mel scale."""
    high = min(high, sample_rate / 2.0)
    mel_points = np.linspace(hz_to_mel(low), hz_to_mel(high), n_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((n_fft + 1) * hz_points / sample_rate).astype(int)
    bank = np.zeros((n_filters, n_fft // 2 + 1))
    for index in range(n_filters):
        left, center, right = bins[index], bins[index + 1], bins[index + 2]
        center = max(center, left + 1)
        right = max(right, center + 1)
        for freq_bin in range(left, center):
            bank[index, freq_bin] = (freq_bin - left) / (center - left)
        for freq_bin in range(center, min(right, bank.shape[1])):
            bank[index, freq_bin] = (right - freq_bin) / (right - center)
    return bank


def dct_matrix(n_output: int, n_input: int) -> np.ndarray:
    """Orthonormal DCT-II matrix (n_output, n_input)."""
    k = np.arange(n_output)[:, None]
    n = np.arange(n_input)[None, :]
    matrix = np.cos(np.pi * k * (2 * n + 1) / (2 * n_input))
    matrix *= np.sqrt(2.0 / n_input)
    matrix[0] /= np.sqrt(2.0)
    return matrix


def frame_signal(samples: np.ndarray, frame_size: int, hop: int) -> np.ndarray:
    """(n_frames, frame_size) read-only view of overlapping frames (a signal
    shorter than one frame is zero-padded to one)."""
    if len(samples) < frame_size:
        samples = np.pad(samples, (0, frame_size - len(samples)))
    return np.lib.stride_tricks.sliding_window_view(samples, frame_size)[::hop]


def compute_deltas(features: np.ndarray, window: int = 2) -> np.ndarray:
    """First-order regression deltas over ±``window`` frames (edge-padded)."""
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


@lru_cache(maxsize=32)
def _tables(config: FeatureConfig, rate: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Hamming window, mel filterbank, DCT matrix) for one configuration at
    one sample rate: they depend on nothing else, so they are built once per
    process — not per extractor, streaming session or push."""
    frame_size = int(config.frame_length * rate)
    n_fft = 1 << (frame_size - 1).bit_length()
    tables = (
        np.hamming(frame_size),
        mel_filterbank(config.n_filters, n_fft, rate, config.low_freq, config.high_freq),
        dct_matrix(config.n_coefficients, config.n_filters),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


class FeatureExtractor:
    """Waveform → (n_frames, dimension) MFCC matrix."""

    def __init__(self, config: FeatureConfig = FeatureConfig()):
        self.config = config

    def extract(self, waveform: Waveform) -> np.ndarray:
        config = self.config
        samples = waveform.samples.astype(float)
        if config.pre_emphasis > 0 and len(samples) > 1:
            samples = np.concatenate(
                [samples[:1], samples[1:] - config.pre_emphasis * samples[:-1]]
            )
        cepstra = self.static_cepstra(samples, waveform.sample_rate)
        if config.cmvn and len(cepstra) > 1:
            mean = cepstra.mean(axis=0, keepdims=True)
            std = cepstra.std(axis=0, keepdims=True)
            cepstra = (cepstra - mean) / np.maximum(std, 1e-8)
        if config.add_deltas:
            cepstra = np.hstack([cepstra, compute_deltas(cepstra)])
        return cepstra

    def static_cepstra(self, samples: np.ndarray, rate: int) -> np.ndarray:
        """Window → power spectrum → mel → log → DCT of float ``samples`` as
        given: the per-frame part of :meth:`extract`, without pre-emphasis,
        CMVN or deltas (which need cross-chunk or whole-utterance context and
        are the streaming front-end's own to apply)."""
        window, bank, dct = _tables(self.config, rate)
        hop = int(self.config.frame_hop * rate)
        frames = frame_signal(samples, len(window), hop) * window

        n_fft = 1 << (len(window) - 1).bit_length()
        spectrum = np.fft.rfft(frames, n=n_fft, axis=1)
        power = (np.abs(spectrum) ** 2) / n_fft

        log_energies = np.log(np.maximum(power @ bank.T, 1e-12))
        return log_energies @ dct.T

    def frames_for_samples(self, n_samples: int, rate: int) -> int:
        """How many frames :meth:`extract` yields for ``n_samples`` samples."""
        frame_size = int(self.config.frame_length * rate)
        hop = int(self.config.frame_hop * rate)
        return 1 + max(n_samples - frame_size, 0) // hop
