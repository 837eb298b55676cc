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

from typing import List, Optional

import numpy as np

from repro.asr.audio import Waveform
from repro.asr.decoder import DecodeResult, Decoder, ViterbiSearch
from repro.asr.features import FeatureConfig, FeatureExtractor, compute_deltas
from repro.errors import DecodingError
from repro.profiling import NullProfiler, Profiler


class StreamingFeatureExtractor:
    """Incremental MFCC extraction with delta lookahead.

    ``push(samples)`` returns any newly completed feature rows; ``flush()``
    pads the tail (edge-style, matching the offline extractor) and returns
    the remaining rows.
    """

    LOOKAHEAD = 2  # frames of future context the delta window needs

    def __init__(self, config: FeatureConfig = FeatureConfig(), sample_rate: int = 16000):
        self.config = config
        self.sample_rate = sample_rate
        # Pre-emphasis is applied incrementally here (it needs one sample of
        # cross-chunk context), so the inner extractor runs with it off.
        self._extractor = FeatureExtractor(
            FeatureConfig(
                frame_length=config.frame_length,
                frame_hop=config.frame_hop,
                n_filters=config.n_filters,
                n_coefficients=config.n_coefficients,
                pre_emphasis=0.0,
                low_freq=config.low_freq,
                high_freq=config.high_freq,
                add_deltas=False,
                cmvn=False,  # CMVN needs the whole utterance; not streamable
            )
        )
        self._frame_size = int(config.frame_length * sample_rate)
        self._hop = int(config.frame_hop * sample_rate)
        self._sample_buffer = np.zeros(0)
        self._prev_raw: Optional[float] = None  # last raw sample (pre-emphasis carry)
        self._cepstra: List[np.ndarray] = []   # all static frames so far
        self._emitted = 0                       # frames already released

    def push(self, samples: np.ndarray) -> np.ndarray:
        """Add audio; return newly available (n, dim) feature rows."""
        samples = np.asarray(samples, dtype=float).ravel()
        if len(samples):
            # Incremental pre-emphasis: y[i] = x[i] - a*x[i-1], carrying the
            # previous chunk's last raw sample (first sample passes through,
            # as in the offline extractor).
            alpha = self.config.pre_emphasis
            if alpha > 0:
                previous = np.empty_like(samples)
                previous[1:] = samples[:-1]
                if self._prev_raw is None:
                    emphasized = samples.copy()
                    previous[0] = 0.0
                    emphasized[1:] = samples[1:] - alpha * previous[1:]
                else:
                    previous[0] = self._prev_raw
                    emphasized = samples - alpha * previous
                self._prev_raw = float(samples[-1])
                samples = emphasized
            self._sample_buffer = np.concatenate([self._sample_buffer, samples])
        # Process every complete frame window currently in the buffer.
        n_ready = 1 + (len(self._sample_buffer) - self._frame_size) // self._hop
        if n_ready > 0:
            used = (n_ready - 1) * self._hop + self._frame_size
            rows = self._extractor.extract(
                Waveform(self._sample_buffer[:used], self.sample_rate)
            )
            self._cepstra.extend(rows[:n_ready])
            self._sample_buffer = self._sample_buffer[n_ready * self._hop :]
        return self._release(final=False)

    def _release(self, final: bool) -> np.ndarray:
        available = len(self._cepstra) - (0 if final else self.LOOKAHEAD)
        if available <= self._emitted:
            return np.zeros((0, self.config.dimension))
        # Row i's delta reads rows i-2 .. i+2, so the rows to emit need only
        # this window of the history.  ``compute_deltas`` edge-pads the
        # window, which is the offline padding where the window starts at
        # row 0 or (on flush) ends at the last row, and otherwise only
        # reaches the two context rows on each side, which are not emitted.
        low = max(self._emitted - self.LOOKAHEAD, 0)
        static = np.vstack(self._cepstra[low:])
        if self.config.add_deltas:
            full = np.hstack([static, compute_deltas(static)])
        else:
            full = static
        rows = full[self._emitted - low : available - low]
        self._emitted = available
        return rows

    def flush(self) -> np.ndarray:
        """Emit the remaining frames (tail lookahead resolved by padding).

        An utterance whose *total* length never reached one frame window is
        zero-padded to a single frame here, matching the offline extractor
        (``frame_signal`` pads sub-frame signals rather than dropping them).
        A stream that received no samples at all stays empty — padding it
        would fabricate a frame out of nothing.
        """
        if not self._cepstra and len(self._sample_buffer):
            # Sub-frame utterance: the buffer holds every (already
            # pre-emphasized) sample; pad with zeros exactly as the offline
            # path pads the raw signal after its own pre-emphasis.
            padded = np.zeros(self._frame_size)
            padded[: len(self._sample_buffer)] = self._sample_buffer
            rows = self._extractor.extract(Waveform(padded, self.sample_rate))
            self._cepstra.extend(rows[:1])
            self._sample_buffer = np.zeros(0)
        return self._release(final=True)

    @property
    def n_frames_emitted(self) -> int:
        return self._emitted


class StreamingDecoder:
    """Online recognition over a :class:`~repro.asr.decoder.Decoder`'s graph.

    >>> streaming = StreamingDecoder(decoder)          # doctest: +SKIP
    >>> for chunk in chunks: streaming.feed(chunk)     # doctest: +SKIP
    >>> streaming.finish().text                        # doctest: +SKIP
    """

    def __init__(self, decoder: Decoder, profiler: Optional[Profiler] = None):
        self.decoder = decoder
        #: Sections mirror the offline decoder's Figure 9 breakdown
        #: (``asr.features`` / ``asr.scoring`` / ``asr.search``) so a
        #: streaming session attributes component time under the same names.
        self.profiler = profiler if profiler is not None else NullProfiler()
        self._features = StreamingFeatureExtractor(decoder.feature_extractor.config)
        self._search = ViterbiSearch(decoder)
        self._finished = False

    @property
    def frames_seen(self) -> int:
        """Frames the Viterbi has consumed so far."""
        return self._search.n_frames

    def _step_frames(self, features: np.ndarray) -> None:
        if len(features) == 0:
            return
        with self.profiler.section("asr.scoring"):
            emissions = self.decoder.acoustic_model.emission_scores(features)
        with self.profiler.section("asr.search"):
            self._search.advance(emissions)

    # -- public API ------------------------------------------------------------------

    def feed(self, samples: np.ndarray) -> None:
        """Add an audio chunk (any length, including empty)."""
        if self._finished:
            raise DecodingError("decoder already finished; create a new one")
        with self.profiler.section("asr.features"):
            rows = self._features.push(samples)
        self._step_frames(rows)

    def partial(self) -> str:
        """Best running hypothesis over the audio so far ('' before any frame)."""
        results = self._search.results()
        return results[0].text if results else ""

    def finish(self) -> DecodeResult:
        """Flush buffered audio and return the final result."""
        if not self._finished:
            with self.profiler.section("asr.features"):
                rows = self._features.flush()
            self._step_frames(rows)
            self._finished = True
        results = self._search.results()
        if not results:
            raise DecodingError("no audio decoded")
        return results[0]
