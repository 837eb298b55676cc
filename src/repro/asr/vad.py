"""Streaming utterance endpointing: energy voice-activity detection.

IPAs run a cheap VAD ahead of the recognizer: it decides when the user has
stopped talking (the paper's mobile side sends *compressed recordings of
voice commands*, not an open microphone).  The detector tracks frame energy
against an adaptive noise floor.
"""

from __future__ import annotations

from bisect import insort
from typing import List

import numpy as np

FRAME_LENGTH = 0.02        # seconds per analysis frame
THRESHOLD_DB = 9.0         # speech must exceed the floor by this much
FLOOR_PERCENTILE = 20.0    # noise-floor estimate percentile
#: Ceiling on the estimated noise floor: recordings that are wall-to-wall
#: speech have no quiet frames, so the percentile alone would sit inside
#: the speech band and suppress everything.
MAX_FLOOR_DB = -35.0
#: Consecutive non-speech frames (after speech has been heard) that close
#: the utterance: 15 frames of 0.02 s, 300 ms.
MIN_TRAILING_SILENCE = 15


class StreamingEndpointer:
    """Causal utterance endpointing over arriving audio chunks.

    The gateway feeds every chunk through :meth:`push` and polls
    :attr:`endpointed`; the decision is *when to finalize*, never which
    audio to decode — the decoder always sees the full stream, so
    endpointing cannot perturb the transcript (the streaming-equivalence
    guarantee in ``docs/STREAMING.md``).

    Per 20 ms frame it compares RMS energy against an adaptive floor (the
    running ``FLOOR_PERCENTILE`` of all energies heard so far, capped at
    ``MAX_FLOOR_DB``).  Speech raises the trigger; ``MIN_TRAILING_SILENCE``
    consecutive quiet frames after speech mark the endpoint.  Deterministic:
    decisions depend only on the samples, never on wall time.

    The energies are kept in sorted order (one ``insort`` per frame) and the
    floor is read from them by index with numpy's own linear-method
    arithmetic, so it is bit-equal to ``np.percentile(energies_so_far,
    FLOOR_PERCENTILE)`` at every frame without re-partitioning the history
    (``tests/test_asr_vad.py::TestIncrementalFloor`` holds it to ``==``).
    Once endpointed, further audio is ignored, not buffered.
    """

    def __init__(self, sample_rate: int = 16000):
        self.sample_rate = sample_rate
        self._frame = max(int(FRAME_LENGTH * sample_rate), 1)
        self.reset()

    def reset(self) -> None:
        """Forget all audio (new utterance on the same channel)."""
        self._buffer = np.zeros(0)
        self._sorted: List[float] = []   # every frame energy so far, ascending
        self.speech_started = False
        self.endpointed = False
        self._trailing_silence = 0

    def _floor(self) -> float:
        """``np.percentile(energies, FLOOR_PERCENTILE)`` off the sorted list:
        numpy's ``linear`` method, two-sided lerp included."""
        last = len(self._sorted) - 1
        virtual = last * (FLOOR_PERCENTILE / 100)
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
        for energy in (20.0 * np.log10(np.maximum(rms, 1e-5))).tolist():
            insort(self._sorted, energy)
            floor = min(self._floor(), MAX_FLOOR_DB)
            if energy > floor + THRESHOLD_DB:
                self.speech_started = True
                self._trailing_silence = 0
            elif self.speech_started:
                self._trailing_silence += 1
                if self._trailing_silence >= MIN_TRAILING_SILENCE:
                    self.endpointed = True
                    break
        return self.endpointed
