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
    starts: np.ndarray        # (V,) graph index of each word's first state
    phone_ends: np.ndarray    # (V,) last phoneme state of each word
    sil_ends: np.ndarray      # (V,) last silence-tail state of each word
    lead_sil_end: int         # last state of the utterance-initial silence
    no_advance: np.ndarray    # (V + 1,) states no left neighbour advances into
    ends: np.ndarray          # (2V + 1,) phone_ends, sil_ends, lead_sil_end


def _build_graph(vocabulary: Sequence[str]) -> _Graph:
    pstate: List[int] = []
    word_of_state: List[int] = []
    starts: List[int] = []
    phone_ends: List[int] = []
    sil_ends: List[int] = []
    # Utterance-initial silence: real recordings do not start mid-word.
    for sub_state in range(STATES_PER_PHONEME):
        pstate.append(phoneme_state_id(SILENCE, sub_state))
        word_of_state.append(-1)
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
        phone_ends.append(len(pstate) - 1)
        for sub_state in range(STATES_PER_PHONEME):
            pstate.append(phoneme_state_id(SILENCE, sub_state))
            word_of_state.append(word_index)
        sil_ends.append(len(pstate) - 1)
    return _Graph(
        pstate=np.array(pstate),
        word_of_state=np.array(word_of_state),
        starts=np.array(starts),
        phone_ends=np.array(phone_ends),
        sil_ends=np.array(sil_ends),
        lead_sil_end=lead_sil_end,
        no_advance=np.array([0, *starts]),
        ends=np.array([*phone_ends, *sil_ends, lead_sil_end]),
    )


_NEG_INF = -1e30  # log score of a dead token
_ALIVE = _NEG_INF / 2  # every live token scores above this, every dead one below
_INITIAL_LINKS = 1024  # link-table rows before the first doubling


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

    One frame is four steps over preallocated ``(S,)`` buffers (the step
    ASRPU calls expand → prune): *shift* every token along its self-loop or
    to its right neighbour, *enter* word starts from the word ends that are
    still alive, *emit* the frame's acoustic scores, *prune* to the beam.
    Word entry is sparse: a token the beam killed scores exactly
    ``_NEG_INF``, language-model scores are finite, so a dead word end can
    never beat a live one into a word start, and a frame with no live end
    has no entry step at all.
    """

    def __init__(self, decoder: Decoder):
        self._decoder = decoder
        n_states = len(decoder._graph.pstate)
        # Token scores and word-link histories, each a double buffer that
        # ``advance`` swaps per frame instead of allocating.
        self._delta = np.full(n_states, _NEG_INF)
        self._hist = np.full(n_states, -1, dtype=np.int64)
        self._next_delta = np.empty(n_states)
        self._next_hist = np.empty(n_states, dtype=np.int64)
        self._stay = np.empty(n_states)
        self._mask = np.empty(n_states, dtype=bool)
        self._ends = np.empty(len(decoder._graph.ends))
        # Link table: row i is (word_index, previous_link_id) of the i-th
        # completed word; doubled when full.
        self._links = np.empty((_INITIAL_LINKS, 2), dtype=np.int64)
        self._n_links = 0
        self.n_frames = 0

    def advance(self, emissions: np.ndarray) -> None:
        """Consume a ``(T, n_emission_states)`` block of frames (T may be 0)."""
        decoder = self._decoder
        graph = decoder._graph
        start_states = graph.starts
        log_self, log_adv, beam = decoder.log_self, decoder.log_adv, decoder.beam
        frame_scores = emissions[:, graph.pstate]  # (T, S)
        delta, hist = self._delta, self._hist
        new_delta, new_hist = self._next_delta, self._next_hist
        stay, mask, ends = self._stay, self._mask, self._ends

        if self.n_frames == 0 and len(frame_scores):
            # First frame: tokens enter every word start from BOS, or the
            # initial silence chain (audio that opens with a pause).
            bos_scores = decoder._lm_scores[len(decoder.vocabulary)]
            delta[start_states] = (
                frame_scores[0, start_states]
                + (bos_scores + decoder.insertion_penalty)
            )
            delta[0] = frame_scores[0, 0]  # first lead-silence state
            frame_scores = frame_scores[1:]

        for scores in frame_scores:
            # Shift: each state keeps its own token or takes its left
            # neighbour's, whichever scores higher (ties stay).
            np.add(delta, log_self, out=stay)
            np.add(delta[:-1], log_adv, out=new_delta[1:])
            new_delta[graph.no_advance] = _NEG_INF
            np.greater(new_delta, stay, out=mask)
            np.maximum(new_delta, stay, out=new_delta)
            np.copyto(new_hist, hist)
            np.copyto(new_hist[1:], hist[:-1], where=mask[1:])

            # Enter: cross-word transitions leave the *previous* frame's
            # word-end tokens, when any is alive.
            delta.take(graph.ends, out=ends)
            if ends.max() > _ALIVE:
                self._enter_words(ends, hist, new_delta, new_hist)

            # Emit, then prune to the beam.
            np.add(new_delta, scores, out=new_delta)
            if beam is not None:
                np.less(new_delta, new_delta.max() - beam, out=mask)
                np.copyto(new_delta, _NEG_INF, where=mask)

            delta, new_delta = new_delta, delta
            hist, new_hist = new_hist, hist

        self._delta, self._hist = delta, hist
        self._next_delta, self._next_hist = new_delta, new_hist
        self.n_frames += len(emissions)

    def _enter_words(
        self,
        ends: np.ndarray,
        hist: np.ndarray,
        new_delta: np.ndarray,
        new_hist: np.ndarray,
    ) -> None:
        """Move the best live word-end (or lead-silence) token into each word
        start it beats, recording one link per word completed.

        ``ends`` holds the previous frame's tokens at ``graph.ends``.
        """
        decoder = self._decoder
        graph = decoder._graph
        n_words = len(decoder.vocabulary)
        start_states = graph.starts
        from_phone, from_sil = ends[:n_words], ends[n_words:-1]
        end_scores = np.maximum(from_phone, from_sil)
        # Ascending, so argmax's first-wins tie-break is the lowest word.
        alive = (end_scores > _ALIVE).nonzero()[0]
        lead_alive = ends[-1] > _ALIVE
        if len(alive):
            # entry[w2] = max over live w1 of end_scores[w1] + lmW * lm[w1, w2]
            candidate = end_scores[alive, None] + decoder._lm_scores[alive]
            incoming = entry_delta = (
                candidate.max(axis=0) + decoder.insertion_penalty + decoder.log_adv
            )
        if lead_alive:
            # Entry from the utterance-initial silence carries the BOS prior.
            incoming = bos_entry = (
                ends[-1]
                + decoder._lm_scores[n_words]
                + decoder.insertion_penalty
                + decoder.log_adv
            )
            if len(alive):
                incoming = np.maximum(entry_delta, bos_entry)

        entered = (incoming > new_delta[start_states]).nonzero()[0]
        new_delta[start_states[entered]] = incoming[entered]
        if lead_alive:
            new_hist[start_states[entered]] = hist[graph.lead_sil_end]
            if len(alive):  # the silence keeps exact ties
                entered = entered[entry_delta[entered] > bos_entry[entered]]
        if not len(alive) or not len(entered):
            return
        prev_words = alive[candidate[:, entered].argmax(axis=0)]
        prev_ends = np.where(
            from_sil[prev_words] > from_phone[prev_words],
            graph.sil_ends[prev_words],
            graph.phone_ends[prev_words],
        )
        first, stop = self._n_links, self._n_links + len(entered)
        if stop > len(self._links):
            grown = np.empty((max(2 * len(self._links), stop), 2), dtype=np.int64)
            grown[:first] = self._links[:first]
            self._links = grown
        self._links[first:stop, 0] = prev_words
        self._links[first:stop, 1] = hist[prev_ends]
        new_hist[start_states[entered]] = np.arange(first, stop)
        self._n_links = stop

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
            if score <= _ALIVE:
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
