"""Streaming (online) speech recognition.

Real IPAs decode while the user is still talking.
:class:`StreamingDecoder` takes audio chunks through ``feed``, gives
``partial()`` hypotheses any time and ``finish()`` for the final result.
Its front end is the one MFCC front end,
:class:`~repro.asr.features.StreamingFeatureExtractor` (frames are emitted
as soon as their samples, plus the 2-frame delta lookahead, exist).  It
holds one :class:`~repro.asr.decoder.ViterbiSearch` across feeds — the same
search the offline decoder runs in one block — so given the same feature
rows the two agree to the bit.
"""

from __future__ import annotations

import numpy as np

from repro.asr.decoder import DecodeResult, Decoder, ViterbiSearch
from repro.asr.features import StreamingFeatureExtractor
from repro.errors import DecodingError
from repro.obs.context import section


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
        self._features = StreamingFeatureExtractor(sample_rate)
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
        """Flush buffered audio and return the final result
        (:meth:`~repro.asr.decoder.ViterbiSearch.final`)."""
        if not self._finished:
            with section("asr.features"):
                rows = self._features.flush()
            self._step_frames(rows)
            self._finished = True
        return self._search.final()[0]
