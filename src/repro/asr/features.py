"""MFCC feature extraction — the ASR front-end (paper Figure 4, left box).

Standard pipeline: pre-emphasis → 25 ms Hamming frames at 10 ms hop → power
spectrum → mel filterbank → log → DCT-II → first ``N_COEFFICIENTS`` cepstra,
with delta features appended.  Implemented directly on numpy so the whole
front-end is self-contained.  There is one front end: the streaming
:class:`StreamingFeatureExtractor`; :meth:`FeatureExtractor.extract` is the
whole waveform pushed through it at once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.asr.audio import Waveform

FRAME_LENGTH = 0.025   # seconds
FRAME_HOP = 0.010      # seconds
N_FILTERS = 26
N_COEFFICIENTS = 13
PRE_EMPHASIS = 0.97
LOW_FREQ = 100.0
HIGH_FREQ = 7000.0
#: Frames of context on each side of a delta (the regression window).
DELTA_WINDOW = 2
#: Final feature dimension: the cepstra, then their deltas.
DIMENSION = 2 * N_COEFFICIENTS


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
    (stride,) = samples.strides
    return np.lib.stride_tricks.as_strided(
        samples,
        shape=(1 + (len(samples) - frame_size) // hop, frame_size),
        strides=(hop * stride, stride),
        writeable=False,
    )


def regression_deltas(padded: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Deltas of ``padded[DELTA_WINDOW : len(padded) - DELTA_WINDOW]`` into
    ``out``, which holds zeros: ``Σ_o o·(r[t+o] - r[t-o])`` accumulated onto
    the zeros in offset order, then divided by ``2·Σ_o o²`` — one rounding
    sequence, so every caller that hands over the same rows gets the same
    bits."""
    window = DELTA_WINDOW
    n = len(out)
    step = np.empty(out.shape, dtype=out.dtype)
    for offset in range(1, window + 1):
        np.subtract(
            padded[window + offset : window + offset + n],
            padded[window - offset : window - offset + n],
            out=step,
        )
        step *= offset
        out += step
    out /= 2.0 * sum(offset**2 for offset in range(1, window + 1))
    return out


@lru_cache(maxsize=32)
def _tables(rate: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Hamming window, mel filterbank, DCT matrix) at one sample rate: they
    depend on nothing else, so they are built once per process — not per
    extractor, streaming session or push."""
    frame_size = int(FRAME_LENGTH * rate)
    n_fft = 1 << (frame_size - 1).bit_length()
    tables = (
        np.hamming(frame_size),
        mel_filterbank(N_FILTERS, n_fft, rate, LOW_FREQ, HIGH_FREQ),
        dct_matrix(N_COEFFICIENTS, N_FILTERS),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


class FeatureExtractor:
    """Waveform → (n_frames, DIMENSION) MFCC matrix."""

    def extract(self, waveform: Waveform) -> np.ndarray:
        """The streaming front end's rows for the whole waveform: one push,
        then the flush."""
        stream = StreamingFeatureExtractor(waveform.sample_rate)
        return np.vstack([stream.push(waveform.samples), stream.flush()])

    def static_cepstra(self, samples: np.ndarray, rate: int) -> np.ndarray:
        """Window → power spectrum → mel → log → DCT of float ``samples`` as
        given: the per-frame part of the front end, without pre-emphasis or
        deltas (which need cross-chunk context and are the streaming
        front-end's own to apply)."""
        window, bank, dct = _tables(rate)
        hop = int(FRAME_HOP * rate)
        frames = frame_signal(samples, len(window), hop) * window

        n_fft = 1 << (len(window) - 1).bit_length()
        spectrum = np.fft.rfft(frames, n=n_fft, axis=1)
        power = (np.abs(spectrum) ** 2) / n_fft

        log_energies = np.log(np.maximum(power @ bank.T, 1e-12))
        return log_energies @ dct.T


class StreamingFeatureExtractor:
    """Incremental MFCC extraction with delta lookahead.

    ``push(samples)`` returns any newly completed feature rows; ``flush()``
    pads the tail (edge-style) and returns the remaining rows.  State is
    constant in utterance length: the pre-emphasised samples no complete
    frame has consumed yet (less than one frame window) and the static rows
    the next release still reads (the ``2 * LOOKAHEAD`` context rows plus
    whatever is unreleased), held in one array that only grows when a single
    push brings more rows than it has ever held.
    """

    LOOKAHEAD = DELTA_WINDOW  # frames of future context the deltas need

    def __init__(self, sample_rate: int = 16000):
        self.sample_rate = sample_rate
        # Only ``static_cepstra`` is used: pre-emphasis is applied here (it
        # needs one sample of cross-chunk context), deltas over the lookahead
        # window.
        self._extractor = FeatureExtractor()
        self._frame_size = int(FRAME_LENGTH * sample_rate)
        self._hop = int(FRAME_HOP * sample_rate)
        self._samples = np.zeros(0)             # pre-emphasised, not yet consumed
        self._prev_raw: Optional[float] = None  # last raw sample (pre-emphasis carry)
        # The utterance's static rows, edge-padded for the deltas (LOOKAHEAD
        # copies of the first row lead and, on flush, of the last row trail),
        # held from padded row ``_first`` on in ``_history[:_held]``.
        self._history = np.empty((8 * self.LOOKAHEAD, N_COEFFICIENTS))
        self._held = 0
        self._first = 0
        self._n_static = 0                      # static frames computed so far
        self._emitted = 0                       # frames already released

    def push(self, samples: np.ndarray) -> np.ndarray:
        """Add audio; return newly available (n, dim) feature rows."""
        samples = np.asarray(samples, dtype=float).ravel()
        if len(samples):
            carried = len(self._samples)
            buffer = np.empty(carried + len(samples))
            buffer[:carried] = self._samples
            fresh = buffer[carried:]
            # Incremental pre-emphasis: y[i] = x[i] - a*x[i-1], carrying the
            # previous chunk's last raw sample (the utterance's first sample
            # passes through).
            np.multiply(samples[:-1], PRE_EMPHASIS, out=fresh[1:])
            np.subtract(samples[1:], fresh[1:], out=fresh[1:])
            fresh[0] = samples[0]
            if self._prev_raw is not None:
                fresh[0] -= PRE_EMPHASIS * self._prev_raw
            self._prev_raw = float(samples[-1])
            self._samples = buffer
        # Process every complete frame window currently in the buffer.
        n_ready = 1 + (len(self._samples) - self._frame_size) // self._hop
        if n_ready > 0:
            self._add_static(self._extractor.static_cepstra(self._samples, self.sample_rate))
            self._samples = self._samples[n_ready * self._hop :]
        return self._release(final=False)

    def _hold(self, rows: np.ndarray) -> None:
        """Append padded rows to the history, growing it only when full."""
        stop = self._held + len(rows)
        if stop > len(self._history):
            grown = np.empty((max(stop, 2 * len(self._history)), self._history.shape[1]))
            grown[: self._held] = self._history[: self._held]
            self._history = grown
        self._history[self._held : stop] = rows
        self._held = stop

    def _add_static(self, rows: np.ndarray) -> None:
        if not self._n_static:
            for _ in range(self.LOOKAHEAD):
                self._hold(rows[:1])
        self._hold(rows)
        self._n_static += len(rows)

    def _release(self, final: bool) -> np.ndarray:
        available = self._n_static - (0 if final else self.LOOKAHEAD)
        if available <= self._emitted:
            return np.zeros((0, DIMENSION))
        n = available - self._emitted
        start = self._emitted - self._first
        rows = np.zeros((n, DIMENSION))
        if final:
            # The tail padding: edge copies of the last row.
            for _ in range(self.LOOKAHEAD):
                self._hold(self._history[self._held - 1 : self._held])
        # Padded row p is static row p - LOOKAHEAD, and row i's delta reads
        # padded rows i .. i + 2 * LOOKAHEAD.
        padded = self._history[start : start + n + 2 * self.LOOKAHEAD]
        rows[:, :N_COEFFICIENTS] = padded[self.LOOKAHEAD : self.LOOKAHEAD + n]
        regression_deltas(padded, rows[:, N_COEFFICIENTS:])
        self._emitted = available
        # Later releases read from padded row ``available`` on: move those
        # few rows (context plus the unreleased lookahead) to the front.
        drop = available - self._first
        kept = self._held - drop
        self._history[:kept] = self._history[drop : self._held]
        self._held = kept
        self._first = available
        return rows

    def flush(self) -> np.ndarray:
        """Emit the remaining frames (tail lookahead resolved by padding).

        An utterance whose *total* length never reached one frame window is
        zero-padded to a single frame here (``frame_signal`` pads sub-frame
        signals rather than dropping them).
        A stream that received no samples at all stays empty — padding it
        would fabricate a frame out of nothing.
        """
        if not self._n_static and len(self._samples):
            # Sub-frame utterance: the buffer holds every (already
            # pre-emphasized) sample, and framing zero-pads it.
            self._add_static(self._extractor.static_cepstra(self._samples, self.sample_rate))
            self._samples = np.zeros(0)
        return self._release(final=True)
