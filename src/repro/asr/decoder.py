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
    N_EMISSION_STATES,
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
    """Flattened decoding graph arrays.

    Word entry has ``V + 1`` *sources*: source 0 is the utterance-initial
    silence, source ``w + 1`` is word ``w``.
    """

    pstate: np.ndarray        # (S,) emission-state id per graph state
    word_of_state: np.ndarray  # (S,)
    starts: np.ndarray        # (V,) graph index of each word's first state
    # (2, V + 1) per source: its last phoneme state and its last silence-tail
    # state (for source 0, twice the last state of the lead silence)
    end_states: np.ndarray
    no_advance: np.ndarray    # (V + 1,) states no left neighbour advances into


def _build_graph(vocabulary: Sequence[str]) -> _Graph:
    pstate: List[int] = []
    word_of_state: List[int] = []
    starts: List[int] = []
    # Utterance-initial silence: real recordings do not start mid-word.
    for sub_state in range(STATES_PER_PHONEME):
        pstate.append(phoneme_state_id(SILENCE, sub_state))
        word_of_state.append(-1)
    phone_ends: List[int] = [len(pstate) - 1]
    sil_ends: List[int] = [len(pstate) - 1]
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
        end_states=np.array([phone_ends, sil_ends]),
        no_advance=np.array([0, *starts]),
    )


_NEG_INF = -1e30  # log score of a dead token
_ALIVE = _NEG_INF / 2  # every live token scores above this, every dead one below


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
        if beam is not None and beam < 0:
            raise DecodingError("beam must be >= 0 (or None for no pruning)")
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
        # What a token gains by moving to its right neighbour; a state that
        # has none to its left (state 0, word starts) is offered a dead one.
        self._advance_scores = np.full(len(self._graph.pstate), self.log_adv)
        self._advance_scores[self._graph.no_advance] = _NEG_INF
        # Frame-independent LM products, built once for every search, one
        # row per entry source: row 0 is the BOS prior (the lead silence),
        # row w + 1 scores the cross-word transitions out of word w.
        self._lm_scores = lm_weight * np.roll(
            language_model.transition_matrix(self.vocabulary), 1, axis=0
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


def _token_buffers(n_states: int) -> Tuple[np.ndarray, ...]:
    """Score and history buffers of one frame, as ``(delta, left_delta, hist,
    left_hist)``.

    Each buffer has one permanently dead cell in front of state 0 (nothing
    ever writes it), so the ``left_*`` views, which end one cell early, hold
    every state's left neighbour at the state's own index.
    """
    delta = np.full(n_states + 1, _NEG_INF)
    hist = np.full(n_states + 1, -1, dtype=np.int64)
    return delta[1:], delta[:-1], hist[1:], hist[:-1]


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
    Word entry costs per live *source* (the lead silence, or a word whose
    end token survived), not per word start: a token the beam killed scores
    exactly ``_NEG_INF``, language-model scores are finite, so a dead source
    can never beat a live one into a word start and is never looked at, and
    every start a source enters gets the same ``(word, history)`` link.
    """

    def __init__(self, decoder: Decoder):
        self._decoder = decoder
        n_states = len(decoder._graph.pstate)
        n_words = len(decoder.vocabulary)
        # Double buffer: ``advance`` reads one set and writes the other.
        self._now = _token_buffers(n_states)
        self._ahead = _token_buffers(n_states)
        self._stay = np.empty(n_states)
        self._mask = np.empty(n_states, dtype=bool)
        self._scores = np.empty(n_states)  # the frame's emissions, per state
        self._ends = np.empty((2, n_words + 1))
        self._end_tokens = np.empty(n_words + 1)
        self._offer = np.empty(n_words)
        self._wins = np.empty(n_words, dtype=bool)
        # Link i is (word_index, previous_link_id) of the i-th completed word.
        self._links: List[Tuple[int, int]] = []
        self.n_frames = 0

    def advance(self, emissions: np.ndarray) -> None:
        """Consume a ``(T, N_EMISSION_STATES)`` block of frames (T may be 0)."""
        emissions = np.asarray(emissions, dtype=np.float64)
        if emissions.ndim != 2 or emissions.shape[1] != N_EMISSION_STATES:
            raise DecodingError(
                f"emissions must be (frames, {N_EMISSION_STATES}), "
                f"got {emissions.shape}"
            )
        decoder = self._decoder
        graph = decoder._graph
        pstate, end_states = graph.pstate, graph.end_states
        log_self, beam = decoder.log_self, decoder.beam
        advance_scores = decoder._advance_scores
        stay, mask, scores = self._stay, self._mask, self._scores
        ends, end_tokens = self._ends, self._end_tokens
        from_phone, from_sil = ends
        now, ahead = self._now, self._ahead
        rows = iter(emissions)

        if self.n_frames == 0 and len(emissions):
            # First frame: tokens enter every word start from BOS, or the
            # initial silence chain (audio that opens with a pause).
            next(rows).take(pstate, out=scores, mode="clip")
            delta = now[0]
            delta[graph.starts] = scores[graph.starts] + (
                decoder._lm_scores[0] + decoder.insertion_penalty
            )
            delta[0] = scores[0]  # first lead-silence state

        for row in rows:
            delta, left_delta, hist, left_hist = now
            new_delta, _, new_hist, _ = ahead
            # Shift: each state keeps its own token or takes its left
            # neighbour's, whichever scores higher (ties stay).
            np.add(delta, log_self, out=stay)
            np.add(left_delta, advance_scores, out=new_delta)
            np.greater(new_delta, stay, out=mask)
            np.maximum(new_delta, stay, out=new_delta)
            np.copyto(new_hist, hist)
            np.copyto(new_hist, left_hist, where=mask)

            # Enter: cross-word transitions leave the *previous* frame's
            # end tokens, from the sources that have a live one.  ("clip"
            # skips numpy's bounds buffering; graph indices are in range.)
            delta.take(end_states, out=ends, mode="clip")
            np.maximum(from_phone, from_sil, out=end_tokens)
            live = (end_tokens > _ALIVE).nonzero()[0]
            if len(live):
                self._enter_words(live.tolist(), hist, new_delta, new_hist)

            # Emit, then prune to the beam.  The matrix width was checked
            # above, so no index clips here either.
            row.take(pstate, out=scores, mode="clip")
            np.add(new_delta, scores, out=new_delta)
            if beam is not None:
                np.less(new_delta, new_delta.max() - beam, out=mask)
                np.putmask(new_delta, mask, _NEG_INF)

            now, ahead = ahead, now

        self._now, self._ahead = now, ahead
        self.n_frames += len(emissions)

    def _enter_words(
        self,
        live: List[int],
        hist: np.ndarray,
        new_delta: np.ndarray,
        new_hist: np.ndarray,
    ) -> None:
        """Offer each live source's end token to every word start, in
        ascending source order, recording one link per word that wins any.

        A start goes to an offer only when strictly greater, so of equal
        offers the lead silence (source 0) keeps the start and after it the
        lowest word index does.  ``self._ends`` and ``self._end_tokens`` hold
        the previous frame's end tokens of every source.
        """
        decoder = self._decoder
        graph = decoder._graph
        lm_scores, penalty, log_adv = (
            decoder._lm_scores, decoder.insertion_penalty, decoder.log_adv
        )
        (from_phone, from_sil), end_tokens = self._ends, self._end_tokens
        offer, wins = self._offer, self._wins
        start_delta = new_delta.take(graph.starts)
        start_hist = new_hist.take(graph.starts)
        for source in live:
            # offer[w2] = ((token + lmW * lm[source, w2]) + penalty) + log_adv
            np.add(lm_scores[source], end_tokens[source], out=offer)
            np.add(offer, penalty, out=offer)
            np.add(offer, log_adv, out=offer)
            np.greater(offer, start_delta, out=wins)
            if not np.count_nonzero(wins):
                continue
            better = int(from_sil[source] > from_phone[source])
            link = int(hist[graph.end_states[better, source]])
            if source:  # a word ended; the lead silence hands its own history on
                self._links.append((source - 1, link))
                link = len(self._links) - 1
            np.putmask(start_delta, wins, offer)
            np.putmask(start_hist, wins, link)
        new_delta[graph.starts] = start_delta
        new_hist[graph.starts] = start_hist

    def _word_ends(self, delta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per word, the better of its phone-end and silence-tail tokens."""
        phone_ends, sil_ends = self._decoder._graph.end_states[:, 1:]
        end_from_phone = delta[phone_ends]
        end_from_sil = delta[sil_ends]
        use_sil = end_from_sil > end_from_phone
        return (
            np.where(use_sil, end_from_sil, end_from_phone),
            np.where(use_sil, sil_ends, phone_ends),
        )

    def results(self, n_best: int = 1) -> List[DecodeResult]:
        """Up to ``n_best`` hypotheses, best first: word end plus EOS score.

        Empty before the first frame and when no path survived the beam.
        """
        if self.n_frames == 0:
            return []
        vocabulary = self._decoder.vocabulary
        delta, _, hist, _ = self._now
        end_scores, end_states = self._word_ends(delta)
        final = end_scores + self._decoder._eos_scores
        results: List[DecodeResult] = []
        # Stable, so exact ties rank by word index on every numpy build.
        for word_index in np.argsort(-final, kind="stable")[:n_best]:
            score = float(final[word_index])
            if score <= _ALIVE:
                break
            words: List[str] = [vocabulary[int(word_index)]]
            link_id = int(hist[end_states[word_index]])
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
