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
from repro.errors import DecodingError
from repro.obs.context import section

#: Log score added at every word entry (favours fewer, longer words).
INSERTION_PENALTY = -2.0
#: Probability that an HMM state loops to itself rather than advancing.
SELF_LOOP_PROB = 0.7
#: Hypotheses :meth:`Decoder.decode_nbest` returns at most.
N_BEST = 5

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
        Bigram LM; its vocabulary is the decoding vocabulary.
    lm_weight / beam:
        Standard decoding knobs.  ``beam`` prunes states more than that many
        log units below the frame-best token (None disables pruning).  The
        word insertion penalty is ``INSERTION_PENALTY`` and the HMM
        self-loop probability ``SELF_LOOP_PROB``.
    """

    def __init__(
        self,
        acoustic_model: AcousticModel,
        language_model: BigramLanguageModel,
        lm_weight: float = 10.0,
        beam: Optional[float] = 200.0,
    ):
        if beam is not None and beam < 0:
            raise DecodingError("beam must be >= 0 (or None for no pruning)")
        self.acoustic_model = acoustic_model
        self.language_model = language_model
        self.vocabulary = list(language_model.vocabulary)
        self.feature_extractor = FeatureExtractor()
        self.lm_weight = lm_weight
        # SELF_LOOP_PROB lies strictly inside (0, 1).
        self.log_self = math.log(SELF_LOOP_PROB)  # statcheck: ignore[SC101]
        self.log_adv = math.log(1.0 - SELF_LOOP_PROB)  # statcheck: ignore[SC101]
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

    def decode_waveform(self, waveform: Waveform) -> DecodeResult:
        """Recognize a waveform end to end (features → scores → search).

        Sections: ``asr.features``, ``asr.scoring`` (GMM or DNN),
        ``asr.search`` (HMM Viterbi) — the breakdown of paper Figure 9.
        """
        return self._decode(waveform, None)[0]

    def decode_features(self, features: np.ndarray) -> DecodeResult:
        """Recognize pre-extracted feature frames."""
        return self._decode(None, features)[0]

    def decode_nbest(self, waveform: Waveform) -> List["DecodeResult"]:
        """Approximate ``N_BEST``-best list: alternatives differing in the
        last word.

        Hypotheses are ranked by total path score; the first entry equals
        :meth:`decode_waveform`'s result.  Use :func:`nbest_confidences` to
        turn the scores into a posterior-style confidence distribution.
        """
        return self._decode(waveform, None, n_best=N_BEST)

    def _decode(
        self,
        waveform: Optional[Waveform],
        features: Optional[np.ndarray],
        n_best: int = 1,
    ) -> List[DecodeResult]:
        """The features → scoring → search path behind every ``decode_*``."""
        if features is None:
            with section("asr.features"):
                features = self.feature_extractor.extract(waveform)
        if len(features) == 0:
            raise DecodingError("no feature frames to decode")
        with section("asr.scoring"):
            emissions = self.acoustic_model.emission_scores(features)
        with section("asr.search"):
            return self._search(emissions, n_best)

    def _search(self, emissions: np.ndarray, n_best: int = 1) -> List[DecodeResult]:
        search = ViterbiSearch(self)
        search.advance(emissions)
        return search.final(n_best)

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

    One frame is four steps over one preallocated ``(S,)`` score buffer and
    one history buffer, updated in place (the step ASRPU calls expand →
    prune): *shift* every token along its self-loop or to its right
    neighbour, *enter* word starts from the word ends that were alive at
    the previous frame, *emit* the frame's acoustic scores, *prune* to the
    beam.  Entry reads everything it needs of the previous frame — each
    live source's end token and the history under it — before the shift
    overwrites it (DESIGN.md "The in-place frame step").  Word entry costs
    per live *source* (the lead silence, or a word whose end token
    survived), not per word start: a token the beam killed scores exactly
    ``_NEG_INF``, language-model scores are finite, so a dead source can
    never beat a live one into a word start and is never looked at, and
    every start a source enters gets the same ``(word, history)`` link.
    """

    def __init__(self, decoder: Decoder):
        self._decoder = decoder
        n_states = len(decoder._graph.pstate)
        n_words = len(decoder.vocabulary)
        self._now = _token_buffers(n_states)
        # The shifted tokens, then the frame's emissions, per state.
        self._scratch = np.empty(n_states)
        self._mask = np.empty(n_states, dtype=bool)
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
        scratch, mask = self._scratch, self._mask
        ends, end_tokens = self._ends, self._end_tokens
        from_phone, from_sil = ends
        delta, left_delta, hist, left_hist = self._now
        rows = iter(emissions)

        if self.n_frames == 0 and len(emissions):
            # First frame: tokens enter every word start from BOS, or the
            # initial silence chain (audio that opens with a pause).
            next(rows).take(pstate, out=scratch, mode="clip")
            delta[graph.starts] = scratch[graph.starts] + (
                decoder._lm_scores[0] + INSERTION_PENALTY
            )
            delta[0] = scratch[0]  # first lead-silence state

        for row in rows:
            # Cross-word transitions leave the *previous* frame's end
            # tokens, from the sources that have a live one: read those and
            # the history under each before the shift overwrites them.
            # ("clip" skips numpy's bounds buffering; graph indices are in
            # range.)
            delta.take(end_states, out=ends, mode="clip")
            np.maximum(from_phone, from_sil, out=end_tokens)
            sources = []
            for source in (end_tokens > _ALIVE).nonzero()[0].tolist():
                better = int(from_sil[source] > from_phone[source])
                sources.append((source, int(hist[end_states[better, source]])))

            # Shift: each state keeps its own token or takes its left
            # neighbour's, whichever scores higher (ties stay).  The moved
            # histories are gathered before they are stored, so a state
            # whose left neighbour moves too still takes the old history.
            np.add(left_delta, advance_scores, out=scratch)
            delta += log_self
            np.greater(scratch, delta, out=mask)
            np.maximum(scratch, delta, out=delta)
            moved = mask.nonzero()[0]
            hist[moved] = left_hist[moved]

            if sources:
                self._enter_words(sources, delta, hist)

            # Emit, then prune to the beam.  The matrix width was checked
            # above, so no index clips here either.
            row.take(pstate, out=scratch, mode="clip")
            delta += scratch
            if beam is not None:
                np.less(delta, np.maximum.reduce(delta) - beam, out=mask)
                np.putmask(delta, mask, _NEG_INF)

        self.n_frames += len(emissions)

    def _enter_words(
        self,
        sources: List[Tuple[int, int]],
        delta: np.ndarray,
        hist: np.ndarray,
    ) -> None:
        """Offer each live source's end token to every word start, in
        ascending source order, recording one link per word that wins any.

        ``sources`` holds ``(source, history under its end token)``; a start
        goes to an offer only when strictly greater, so of equal offers the
        lead silence (source 0) keeps the start and after it the lowest word
        index does.  ``self._end_tokens`` holds the previous frame's end
        token of every source; ``delta`` and ``hist`` are this frame's,
        shifted.
        """
        decoder = self._decoder
        starts = decoder._graph.starts
        lm_scores, penalty, log_adv = (
            decoder._lm_scores, INSERTION_PENALTY, decoder.log_adv
        )
        end_tokens, offer, wins = self._end_tokens, self._offer, self._wins
        start_delta = delta.take(starts)
        start_hist = hist.take(starts)
        for source, link in sources:
            # offer[w2] = ((token + lmW * lm[source, w2]) + penalty) + log_adv
            np.add(lm_scores[source], end_tokens[source], out=offer)
            np.add(offer, penalty, out=offer)
            np.add(offer, log_adv, out=offer)
            np.greater(offer, start_delta, out=wins)
            if not np.count_nonzero(wins):
                continue
            if source:  # a word ended; the lead silence hands its own history on
                self._links.append((source - 1, link))
                link = len(self._links) - 1
            np.putmask(start_delta, wins, offer)
            np.putmask(start_hist, wins, link)
        delta[starts] = start_delta
        hist[starts] = start_hist

    def results(self, n_best: int = 1) -> List[DecodeResult]:
        """Up to ``n_best`` hypotheses, best first: word end plus EOS score.

        Empty before the first frame and when no word end survived the beam
        at the last frame.
        """
        if self.n_frames == 0:
            return []
        delta, _, hist, _ = self._now
        word_ends = self._decoder._graph.end_states[:, 1:]
        # Per word, the better of its phone-end and silence-tail tokens.
        from_phone, from_sil = delta.take(word_ends)
        final = np.maximum(from_phone, from_sil) + self._decoder._eos_scores
        # Exact ties rank by word index on every numpy build: ``argmax``
        # takes the first maximum, the sort is stable.
        if n_best == 1:
            ranked = [final.argmax()]
        else:
            ranked = np.argsort(-final, kind="stable")[:n_best]
        results: List[DecodeResult] = []
        for word_index in ranked:
            score = float(final[word_index])
            if score <= _ALIVE:
                break
            state = word_ends[int(from_sil[word_index] > from_phone[word_index]), word_index]
            results.append(self._result(int(word_index), int(hist[state]), score))
        return results

    def final(self, n_best: int = 1) -> List[DecodeResult]:
        """The utterance's result: :meth:`results`, or, when no word end is
        alive at the last frame, the best live token's path — its linked
        words, then the word its state lies in, scored by the token alone
        (no EOS transition: the word has not ended).

        Raises :class:`DecodingError` before the first frame, and when the
        best live token still lies in the lead silence (no word at all).
        """
        if self.n_frames == 0:
            raise DecodingError("no frames decoded")
        results = self.results(n_best)
        if results:
            return results
        delta, _, hist, _ = self._now
        best = int(delta.argmax())
        word_index = int(self._decoder._graph.word_of_state[best])
        if word_index < 0 or delta[best] <= _ALIVE:
            raise DecodingError("no word on any surviving decoding path")
        return [self._result(word_index, int(hist[best]), float(delta[best]))]

    def _result(self, word_index: int, link_id: int, score: float) -> DecodeResult:
        """The hypothesis that ends in ``word_index`` after the words
        ``link_id`` chains back through."""
        vocabulary = self._decoder.vocabulary
        words: List[str] = [vocabulary[word_index]]
        while link_id >= 0:
            prev_word, link_id = self._links[link_id]
            words.append(vocabulary[prev_word])
        words.reverse()
        return DecodeResult(
            text=" ".join(words),
            words=tuple(words),
            log_score=score,
            n_frames=self.n_frames,
        )
