"""Streaming (online) speech recognition.

Real IPAs decode while the user is still talking.  This module provides:

- :class:`StreamingFeatureExtractor` — incremental MFCCs: audio arrives in
  arbitrary chunks; frames are emitted as soon as their samples (plus the
  2-frame delta lookahead) exist;
- :class:`StreamingDecoder` — ``feed`` audio chunks, read ``partial()``
  hypotheses any time, ``finish()`` for the final result.  It holds one
  :class:`~repro.asr.decoder.ViterbiSearch` across feeds — the same search
  the offline decoder runs in one block — so given the same feature rows
  the two agree to the bit; transcripts of the same *audio* match up to
  edge effects at the tail padding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.asr.decoder import DecodeResult, Decoder, ViterbiSearch
from repro.asr.features import FeatureConfig, FeatureExtractor, regression_deltas
from repro.errors import DecodingError
from repro.obs.context import section


class StreamingFeatureExtractor:
    """Incremental MFCC extraction with delta lookahead.

    ``push(samples)`` returns any newly completed feature rows; ``flush()``
    pads the tail (edge-style, matching the offline extractor) and returns
    the remaining rows.  State is constant in utterance length: the
    pre-emphasised samples no complete frame has consumed yet (less than one
    frame window) and the static rows the next release still reads (the
    ``2 * LOOKAHEAD`` context rows plus whatever is unreleased), held in one
    array that only grows when a single push brings more rows than it has
    ever held.
    """

    LOOKAHEAD = 2  # frames of future context the delta window needs

    def __init__(self, config: FeatureConfig = FeatureConfig(), sample_rate: int = 16000):
        self.config = config
        self.sample_rate = sample_rate
        # Only ``static_cepstra`` is used: pre-emphasis is applied here (it
        # needs one sample of cross-chunk context), deltas over the lookahead
        # window.
        self._extractor = FeatureExtractor(config)
        self._frame_size = int(config.frame_length * sample_rate)
        self._hop = int(config.frame_hop * sample_rate)
        self._samples = np.zeros(0)             # pre-emphasised, not yet consumed
        self._prev_raw: Optional[float] = None  # last raw sample (pre-emphasis carry)
        # The utterance's static rows as ``compute_deltas`` pads them (with
        # deltas, LOOKAHEAD copies of the first row lead and, on flush, of the
        # last row trail), held from padded row ``_first`` on in
        # ``_history[:_held]``.
        self._history = np.empty((8 * self.LOOKAHEAD, config.n_coefficients))
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
            # previous chunk's last raw sample (first sample passes through,
            # as in the offline extractor).
            alpha = self.config.pre_emphasis
            if alpha > 0:
                np.multiply(samples[:-1], alpha, out=fresh[1:])
                np.subtract(samples[1:], fresh[1:], out=fresh[1:])
                fresh[0] = samples[0]
                if self._prev_raw is not None:
                    fresh[0] -= alpha * self._prev_raw
                self._prev_raw = float(samples[-1])
            else:
                fresh[:] = samples
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
        if not self._n_static and self.config.add_deltas:
            for _ in range(self.LOOKAHEAD):
                self._hold(rows[:1])
        self._hold(rows)
        self._n_static += len(rows)

    def _release(self, final: bool) -> np.ndarray:
        available = self._n_static - (0 if final else self.LOOKAHEAD)
        if available <= self._emitted:
            return np.zeros((0, self.config.dimension))
        n = available - self._emitted
        start = self._emitted - self._first
        rows = np.zeros((n, self.config.dimension))
        if self.config.add_deltas:
            if final:
                # The tail padding: the offline edge copies of the last row.
                for _ in range(self.LOOKAHEAD):
                    self._hold(self._history[self._held - 1 : self._held])
            # Padded row p is static row p - LOOKAHEAD, and row i's delta
            # reads padded rows i .. i + 2 * LOOKAHEAD.
            padded = self._history[start : start + n + 2 * self.LOOKAHEAD]
            width = self.config.n_coefficients
            rows[:, :width] = padded[self.LOOKAHEAD : self.LOOKAHEAD + n]
            regression_deltas(padded, rows[:, width:], self.LOOKAHEAD)
        else:
            rows[:] = self._history[start : start + n]
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
        zero-padded to a single frame here, matching the offline extractor
        (``frame_signal`` pads sub-frame signals rather than dropping them).
        A stream that received no samples at all stays empty — padding it
        would fabricate a frame out of nothing.
        """
        if not self._n_static and len(self._samples):
            # Sub-frame utterance: the buffer holds every (already
            # pre-emphasized) sample, and framing zero-pads it exactly as the
            # offline path pads the raw signal after its own pre-emphasis.
            self._add_static(self._extractor.static_cepstra(self._samples, self.sample_rate))
            self._samples = np.zeros(0)
        return self._release(final=True)

    @property
    def n_frames_emitted(self) -> int:
        return self._emitted


class StreamingDecoder:
    """Online recognition over a :class:`~repro.asr.decoder.Decoder`'s graph.

    >>> streaming = StreamingDecoder(decoder)          # doctest: +SKIP
    >>> for chunk in chunks: streaming.feed(chunk)     # doctest: +SKIP
    >>> streaming.finish().text                        # doctest: +SKIP

    Every chunk is at ``sample_rate``: the front-end frames at that rate,
    as :meth:`~repro.asr.features.FeatureExtractor.extract` frames a
    :class:`~repro.asr.audio.Waveform` at its own.
    """

    def __init__(self, decoder: Decoder, sample_rate: int = 16000):
        self.decoder = decoder
        self._features = StreamingFeatureExtractor(
            decoder.feature_extractor.config, sample_rate
        )
        self._search = ViterbiSearch(decoder)
        self._finished = False

    @property
    def frames_seen(self) -> int:
        """Frames the Viterbi has consumed so far."""
        return self._search.n_frames

    def _step_frames(self, features: np.ndarray) -> None:
        if len(features) == 0:
            return
        # Sections mirror the offline decoder's Figure 9 breakdown
        # (``asr.features`` / ``asr.scoring`` / ``asr.search``) so a
        # streaming session attributes component time under the same names.
        with section("asr.scoring"):
            emissions = self.decoder.acoustic_model.emission_scores(features)
        with section("asr.search"):
            self._search.advance(emissions)

    # -- public API ------------------------------------------------------------------

    def feed(self, samples: np.ndarray) -> None:
        """Add an audio chunk (any length, including empty)."""
        if self._finished:
            raise DecodingError("decoder already finished; create a new one")
        with section("asr.features"):
            rows = self._features.push(samples)
        self._step_frames(rows)

    def partial(self) -> str:
        """Best running hypothesis over the audio so far ('' before any frame)."""
        results = self._search.results()
        return results[0].text if results else ""

    def finish(self) -> DecodeResult:
        """Flush buffered audio and return the final result."""
        if not self._finished:
            with section("asr.features"):
                rows = self._features.flush()
            self._step_frames(rows)
            self._finished = True
        results = self._search.results()
        if not results:
            raise DecodingError("no audio decoded")
        return results[0]
