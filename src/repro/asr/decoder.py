"""Viterbi token-passing decoder over a word-loop HMM graph (paper Figure 4).

The decoding graph concatenates each vocabulary word's phoneme HMM states
(three per phoneme, left-to-right with self-loops) and appends an optional
silence tail that absorbs inter-word pauses.  Cross-word transitions carry
bigram language-model scores; per-state token histories record word links so
the transcript can be read back after the final frame.

This is the "HMM search" the paper pairs with GMM or DNN scoring — the
acoustic model is swappable (:class:`~repro.asr.acoustic.AcousticModel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.asr.acoustic import (
    AcousticModel,
    SILENCE,
    STATES_PER_PHONEME,
    phoneme_state_id,
)
from repro.asr.audio import Waveform
from repro.asr.features import FeatureExtractor
from repro.asr.lm import BigramLanguageModel
from repro.asr.phonemes import pronounce
from repro.profiling import Profiler
from repro.errors import DecodingError


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output: transcript plus bookkeeping for analysis."""

    text: str
    words: Tuple[str, ...]
    log_score: float
    n_frames: int


@dataclass
class _Graph:
    """Flattened decoding graph arrays."""

    pstate: np.ndarray        # (S,) emission-state id per graph state
    word_of_state: np.ndarray  # (S,)
    is_start: np.ndarray      # (S,) bool: first state of a word chain
    starts: np.ndarray        # (V,) graph index of each word's first state
    phone_ends: np.ndarray    # (V,) last phoneme state of each word
    sil_ends: np.ndarray      # (V,) last silence-tail state of each word
    lead_sil_end: int = -1    # last state of the utterance-initial silence


def _build_graph(vocabulary: Sequence[str]) -> _Graph:
    pstate: List[int] = []
    word_of_state: List[int] = []
    is_start: List[bool] = []
    starts: List[int] = []
    phone_ends: List[int] = []
    sil_ends: List[int] = []
    # Utterance-initial silence: real recordings do not start mid-word.
    for sub_state in range(STATES_PER_PHONEME):
        pstate.append(phoneme_state_id(SILENCE, sub_state))
        word_of_state.append(-1)
        is_start.append(False)
    lead_sil_end = len(pstate) - 1
    for word_index, word in enumerate(vocabulary):
        symbols = pronounce(word)
        if not symbols:
            raise DecodingError(f"word has no pronunciation: {word!r}")
        starts.append(len(pstate))
        for symbol in symbols:
            for sub_state in range(STATES_PER_PHONEME):
                pstate.append(phoneme_state_id(symbol, sub_state))
                word_of_state.append(word_index)
                is_start.append(len(pstate) - 1 == starts[-1])
        phone_ends.append(len(pstate) - 1)
        for sub_state in range(STATES_PER_PHONEME):
            pstate.append(phoneme_state_id(SILENCE, sub_state))
            word_of_state.append(word_index)
            is_start.append(False)
        sil_ends.append(len(pstate) - 1)
    return _Graph(
        pstate=np.array(pstate),
        word_of_state=np.array(word_of_state),
        is_start=np.array(is_start, dtype=bool),
        starts=np.array(starts),
        phone_ends=np.array(phone_ends),
        sil_ends=np.array(sil_ends),
        lead_sil_end=lead_sil_end,
    )


_NEG_INF = -1e30  # log score of a dead token


class Decoder:
    """Large-vocabulary(ish) continuous speech decoder.

    Parameters
    ----------
    acoustic_model:
        Emission scorer (GMM- or DNN-based).
    language_model:
        Bigram LM; its vocabulary becomes the decoding vocabulary unless
        ``vocabulary`` narrows it.
    lm_weight / insertion_penalty / self_loop_prob / beam:
        Standard decoding knobs.  ``beam`` prunes states more than that many
        log units below the frame-best token (None disables pruning).
    """

    def __init__(
        self,
        acoustic_model: AcousticModel,
        language_model: BigramLanguageModel,
        vocabulary: Optional[Sequence[str]] = None,
        feature_extractor: Optional[FeatureExtractor] = None,
        lm_weight: float = 10.0,
        insertion_penalty: float = -2.0,
        self_loop_prob: float = 0.7,
        beam: Optional[float] = 200.0,
    ):
        if not 0 < self_loop_prob < 1:
            raise DecodingError("self_loop_prob must be in (0, 1)")
        self.acoustic_model = acoustic_model
        self.language_model = language_model
        self.vocabulary = list(vocabulary) if vocabulary is not None else list(
            language_model.vocabulary
        )
        if not self.vocabulary:
            raise DecodingError("empty decoding vocabulary")
        self.feature_extractor = (
            feature_extractor if feature_extractor is not None else FeatureExtractor()
        )
        self.lm_weight = lm_weight
        self.insertion_penalty = insertion_penalty
        # self_loop_prob is validated to lie strictly inside (0, 1) above.
        self.log_self = math.log(self_loop_prob)  # statcheck: ignore[SC101]
        self.log_adv = math.log(1.0 - self_loop_prob)  # statcheck: ignore[SC101]
        self.beam = beam

        self._graph = _build_graph(self.vocabulary)
        # Frame-independent LM products, built once for every search: rows
        # [:V] score cross-word transitions, row V is the BOS prior.
        self._lm_scores = lm_weight * language_model.transition_matrix(
            self.vocabulary
        )
        self._eos_scores = lm_weight * language_model.eos_vector(self.vocabulary)

    # -- public API ---------------------------------------------------------------

    def decode_waveform(
        self, waveform: Waveform, profiler: Optional[Profiler] = None
    ) -> DecodeResult:
        """Recognize a waveform end to end (features → scores → search).

        Profiled sections: ``asr.features``, ``asr.scoring`` (GMM or DNN),
        ``asr.search`` (HMM Viterbi) — the breakdown of paper Figure 9.
        """
        return self._decode(waveform, None, profiler)[0]

    def decode_features(
        self, features: np.ndarray, profiler: Optional[Profiler] = None
    ) -> DecodeResult:
        """Recognize pre-extracted feature frames."""
        return self._decode(None, features, profiler)[0]

    def decode_nbest(
        self, waveform: Waveform, n: int = 5
    ) -> List["DecodeResult"]:
        """Approximate n-best list: alternatives differing in the last word.

        Hypotheses are ranked by total path score; the first entry equals
        :meth:`decode_waveform`'s result.  Use :func:`nbest_confidences` to
        turn the scores into a posterior-style confidence distribution.
        """
        if n < 1:
            raise DecodingError("n must be >= 1")
        return self._decode(waveform, None, None, n_best=n)

    def _decode(
        self,
        waveform: Optional[Waveform],
        features: Optional[np.ndarray],
        profiler: Optional[Profiler],
        n_best: int = 1,
    ) -> List[DecodeResult]:
        """The features → scoring → search path behind every ``decode_*``."""
        profiler = profiler if profiler is not None else Profiler()
        if features is None:
            with profiler.section("asr.features"):
                features = self.feature_extractor.extract(waveform)
        if len(features) == 0:
            raise DecodingError("no feature frames to decode")
        with profiler.section("asr.scoring"):
            emissions = self.acoustic_model.emission_scores(features)
        with profiler.section("asr.search"):
            return self._search(emissions, n_best)

    def _search(self, emissions: np.ndarray, n_best: int = 1) -> List[DecodeResult]:
        search = ViterbiSearch(self)
        search.advance(emissions)
        results = search.results(n_best)
        if not results:
            raise DecodingError("no surviving decoding path (beam too tight?)")
        return results

    @staticmethod
    def nbest_confidences(results: Sequence[DecodeResult]) -> List[float]:
        """Softmax the n-best scores into a confidence per hypothesis."""
        if not results:
            return []
        scores = np.array([result.log_score for result in results])
        # Scores scale with frame count; temper by sequence length so the
        # distribution is not a one-hot artifact of huge log ranges.
        scores = scores / max(results[0].n_frames, 1)
        shifted = scores - scores.max()
        weights = np.exp(shifted)
        return list(weights / weights.sum())


class ViterbiSearch:
    """Incremental Viterbi token passing over one :class:`Decoder`'s graph.

    ``advance`` consumes a block of emission rows and ``results`` reads the
    best hypotheses over the frames seen so far without disturbing the
    state, so a streaming caller interleaves the two.  The recursion is
    per-frame, so cutting an emissions matrix into consecutive blocks at any
    boundaries gives bit-identical scores to advancing it whole — batch and
    streaming recognition are this one object driven two ways.
    """

    def __init__(self, decoder: Decoder):
        self._decoder = decoder
        n_states = len(decoder._graph.pstate)
        self._delta = np.full(n_states, _NEG_INF)
        self._hist = np.full(n_states, -1, dtype=np.int64)
        # Link table: (word_index, previous_link_id) per completed word.
        self._links: List[Tuple[int, int]] = []
        self.n_frames = 0

    def advance(self, emissions: np.ndarray) -> None:
        """Consume a ``(T, n_emission_states)`` block of frames (T may be 0)."""
        decoder = self._decoder
        graph = decoder._graph
        n_states = len(graph.pstate)
        n_words = len(decoder.vocabulary)
        lm_scores = decoder._lm_scores[:n_words]
        bos_scores = decoder._lm_scores[n_words]
        word_range = np.arange(n_words)
        start_states = graph.starts
        frame_scores = emissions[:, graph.pstate]  # (T, S)
        delta, hist, links = self._delta, self._hist, self._links

        if self.n_frames == 0 and len(frame_scores):
            # First frame: tokens enter every word start from BOS, or the
            # initial silence chain (audio that opens with a pause).
            delta[start_states] = (
                frame_scores[0, start_states]
                + (bos_scores + decoder.insertion_penalty)
            )
            delta[0] = frame_scores[0, 0]  # first lead-silence state
            frame_scores = frame_scores[1:]

        for scores in frame_scores:
            stay = delta + decoder.log_self
            advance = np.empty(n_states)
            advance[0] = _NEG_INF
            advance[1:] = delta[:-1] + decoder.log_adv
            advance[graph.is_start] = _NEG_INF

            take_advance = advance > stay
            new_delta = np.where(take_advance, advance, stay)
            new_hist = hist.copy()
            source = np.where(take_advance)[0]
            new_hist[source] = hist[source - 1]

            # Cross-word transitions use the *previous* frame's word-end tokens.
            end_scores, end_states = self._word_ends(delta)

            # entry[w2] = max_w1 end_scores[w1] + lmW * lm[w1, w2]
            candidate = end_scores[:, None] + lm_scores
            best_prev = np.argmax(candidate, axis=0)
            entry = candidate[best_prev, word_range] + decoder.insertion_penalty
            entry_delta = entry + decoder.log_adv
            # Entry from the utterance-initial silence carries the BOS prior.
            bos_entry = (
                delta[graph.lead_sil_end]
                + bos_scores
                + decoder.insertion_penalty
                + decoder.log_adv
            )

            better = np.maximum(entry_delta, bos_entry) > new_delta[start_states]
            for word_index in np.where(better)[0]:
                state = start_states[word_index]
                if bos_entry[word_index] >= entry_delta[word_index]:
                    new_delta[state] = bos_entry[word_index]
                    new_hist[state] = hist[graph.lead_sil_end]
                else:
                    prev_word = int(best_prev[word_index])
                    prev_end_state = int(end_states[prev_word])
                    links.append((prev_word, int(hist[prev_end_state])))
                    new_delta[state] = entry_delta[word_index]
                    new_hist[state] = len(links) - 1

            new_delta += scores

            if decoder.beam is not None:
                threshold = new_delta.max() - decoder.beam
                new_delta[new_delta < threshold] = _NEG_INF

            delta, hist = new_delta, new_hist

        self._delta, self._hist = delta, hist
        self.n_frames += len(emissions)

    def _word_ends(self, delta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per word, the better of its phone-end and silence-tail tokens."""
        graph = self._decoder._graph
        end_from_phone = delta[graph.phone_ends]
        end_from_sil = delta[graph.sil_ends]
        use_sil = end_from_sil > end_from_phone
        return (
            np.where(use_sil, end_from_sil, end_from_phone),
            np.where(use_sil, graph.sil_ends, graph.phone_ends),
        )

    def results(self, n_best: int = 1) -> List[DecodeResult]:
        """Up to ``n_best`` hypotheses, best first: word end plus EOS score.

        Empty before the first frame and when no path survived the beam.
        """
        if self.n_frames == 0:
            return []
        vocabulary = self._decoder.vocabulary
        end_scores, end_states = self._word_ends(self._delta)
        final = end_scores + self._decoder._eos_scores
        results: List[DecodeResult] = []
        # Stable, so exact ties rank by word index on every numpy build.
        for word_index in np.argsort(-final, kind="stable")[:n_best]:
            score = float(final[word_index])
            if score <= _NEG_INF / 2:
                break
            words: List[str] = [vocabulary[int(word_index)]]
            link_id = int(self._hist[end_states[word_index]])
            while link_id >= 0:
                prev_word, link_id = self._links[link_id]
                words.append(vocabulary[prev_word])
            words.reverse()
            results.append(
                DecodeResult(
                    text=" ".join(words),
                    words=tuple(words),
                    log_score=score,
                    n_frames=self.n_frames,
                )
            )
        return results
