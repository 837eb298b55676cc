"""End-to-end ASR tests: synthesize → features → acoustic model → Viterbi.

The per-frame step of ``ViterbiSearch`` is held to the bodies it replaced,
kept at the bottom of this file: ``DoubleBufferViterbiSearch`` read one
frame's buffers and wrote the other's, where the search now steps one set
in place, and ``OracleViterbiSearch`` linked every entered word start and
took the cross-word maximum over all live word ends at once, where the
search makes one offer and one link per live source.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asr import (
    BigramLanguageModel,
    Decoder,
    Synthesizer,
    collect_training_data,
    train_dnn_acoustic_model,
    train_gmm_acoustic_model,
)
from repro.asr.acoustic import (
    N_EMISSION_STATES,
    SILENCE,
    STATES_PER_PHONEME,
    label_frames,
    phoneme_state_id,
)
from repro.asr.audio import Waveform
from repro.asr.decoder import (
    INSERTION_PENALTY,
    SELF_LOOP_PROB,
    DecodeResult,
    ViterbiSearch,
    _ALIVE,
    _NEG_INF,
    _token_buffers,
)
from repro.asr.phonemes import pronounce
from repro.core.inputset import all_sentences
from repro.errors import DecodingError, ModelError

SENTENCES = [
    "set my alarm for eight am",
    "what is the capital of italy",
    "who was elected president",
    "play some music now",
]


@pytest.fixture(scope="module")
def training_data():
    return collect_training_data(SENTENCES, repetitions=4)


@pytest.fixture(scope="module")
def gmm_model(training_data):
    return train_gmm_acoustic_model(training_data)


@pytest.fixture(scope="module")
def language_model():
    return BigramLanguageModel(SENTENCES)


@pytest.fixture(scope="module")
def gmm_decoder(gmm_model, language_model):
    return Decoder(gmm_model, language_model)


class TestFrameLabeling:
    def test_labels_match_alignment(self):
        # One phoneme spanning samples [0, 4800) at 16 kHz = 30 frames-ish.
        alignment = [("AA", 0, 4800)]
        labels = label_frames(alignment, n_frames=28)
        # Early frames get sub-state 0, late frames sub-state 2.
        assert labels[0] == phoneme_state_id("AA", 0)
        assert labels[26] == phoneme_state_id("AA", 2)

    def test_uncovered_frames_are_silence(self):
        labels = label_frames([], n_frames=5)
        assert all(label == phoneme_state_id(SILENCE, 1) for label in labels)

    def test_phoneme_state_id_bounds(self):
        with pytest.raises(ModelError):
            phoneme_state_id("AA", 3)
        assert 0 <= phoneme_state_id(SILENCE, 2) < N_EMISSION_STATES


class TestGMMDecoding:
    def test_decodes_training_sentences_exactly(self, gmm_decoder):
        synth = Synthesizer(seed=2024)
        for sentence in SENTENCES:
            result = gmm_decoder.decode_waveform(synth.synthesize(sentence))
            assert result.text == sentence

    def test_decodes_unseen_take(self, gmm_decoder):
        # Different synthesis seed = different jitter/noise; still decodable.
        result = gmm_decoder.decode_waveform(
            Synthesizer(seed=9999).synthesize("set my alarm for eight am")
        )
        assert result.text == "set my alarm for eight am"

    def test_result_metadata(self, gmm_decoder):
        result = gmm_decoder.decode_waveform(Synthesizer(seed=1).synthesize("play some music"))
        assert result.n_frames > 0
        assert np.isfinite(result.log_score)
        assert result.words == tuple(result.text.split())

    def test_empty_features_raise(self, gmm_decoder):
        with pytest.raises(DecodingError):
            gmm_decoder.decode_features(np.zeros((0, 26)))

    def test_utterance_initial_noise_is_decodable(self):
        # The decoding graph opens with a silence unit, so audio that starts
        # with a pause (here 0.1 s of low noise) needs no voice-activity
        # trim before it is decoded.
        sentences = ["play some music now"]
        data = collect_training_data(sentences, repetitions=3)
        decoder = Decoder(train_gmm_acoustic_model(data), BigramLanguageModel(sentences))
        speech = Synthesizer(seed=5).synthesize(sentences[0])
        lead = np.random.default_rng(5).normal(0, 0.003, int(0.1 * speech.sample_rate))
        padded = Waveform(np.concatenate([lead, speech.samples]), speech.sample_rate)
        assert decoder.decode_waveform(padded).text == sentences[0]

    def test_novel_word_order(self, gmm_decoder):
        # Words recombine across training sentences (continuous decoding).
        result = gmm_decoder.decode_waveform(
            Synthesizer(seed=31).synthesize("what is my alarm")
        )
        assert set(result.words) <= set(gmm_decoder.vocabulary)
        assert len(result.words) >= 3


class TestDNNDecoding:
    def test_dnn_decodes_most_sentences(self, training_data, language_model):
        model = train_dnn_acoustic_model(training_data)
        decoder = Decoder(model, language_model)
        synth = Synthesizer(seed=2025)
        exact = sum(
            decoder.decode_waveform(synth.synthesize(s)).text == s for s in SENTENCES
        )
        assert exact >= len(SENTENCES) - 1


class TestDecoderConfig:
    def test_requires_vocabulary(self, gmm_model):
        # The decoding vocabulary is the language model's, which is never empty.
        with pytest.raises(ModelError):
            BigramLanguageModel([""])
        lm = BigramLanguageModel(["hello world"])
        assert Decoder(gmm_model, lm).vocabulary == ["hello", "world"]

    def test_self_loop_validation(self, gmm_model, language_model):
        # Both log transition scores must be finite.
        assert 0 < SELF_LOOP_PROB < 1
        decoder = Decoder(gmm_model, language_model)
        assert np.isfinite(decoder.log_self) and np.isfinite(decoder.log_adv)

    def test_negative_beam_is_rejected(self, gmm_model, language_model):
        # It would prune the frame maximum itself and fail every decode.
        with pytest.raises(DecodingError):
            Decoder(gmm_model, language_model, beam=-5.0)
        Decoder(gmm_model, language_model, beam=0.0)  # greedy search: valid

    def test_tight_beam_still_decodes_or_raises(self, gmm_model, language_model):
        decoder = Decoder(gmm_model, language_model, beam=30.0)
        wave = Synthesizer(seed=77).synthesize("play some music now")
        try:
            result = decoder.decode_waveform(wave)
            assert result.n_frames > 0
        except DecodingError:
            pass  # acceptable: pruning removed all paths

    def test_restricted_vocabulary(self, gmm_model):
        decoder = Decoder(gmm_model, BigramLanguageModel(["set my alarm for eight am"]))
        result = decoder.decode_waveform(
            Synthesizer(seed=8).synthesize("set my alarm")
        )
        assert set(result.words) <= {"set", "my", "alarm", "for", "eight", "am"}


class TestViterbiStep:
    """Edges of the per-frame step: shift, sparse word entry, emit, prune."""

    @pytest.fixture(scope="class")
    def emissions(self, gmm_decoder):
        wave = Synthesizer(seed=12).synthesize("what is the capital of italy")
        return gmm_decoder.acoustic_model.emission_scores(
            gmm_decoder.feature_extractor.extract(wave)
        )

    def test_empty_and_single_row_blocks(self, gmm_decoder, emissions):
        search = ViterbiSearch(gmm_decoder)
        search.advance(emissions[:0])
        assert search.n_frames == 0 and search.results() == []
        search.advance(emissions[:1])
        # One frame in, tokens sit in word starts: no word has ended yet.
        assert search.n_frames == 1 and search.results() == []
        search.advance(emissions[1:1])
        for row in range(1, len(emissions)):
            search.advance(emissions[row : row + 1])
        assert search.results(3) == gmm_decoder._search(emissions, 3)

    def test_beam_that_kills_every_word_end_returns_the_best_live_path(
        self, gmm_model, language_model
    ):
        # Every frame is a perfect match for the first state of "play" and a
        # poor one for everything else: the token that stays there outscores
        # any that moves on by more than the beam, so no word ever ends.
        decoder = Decoder(gmm_model, BigramLanguageModel(["play"]), beam=10.0)
        start = decoder._graph.starts[0]
        emissions = np.full((20, N_EMISSION_STATES), -50.0)
        emissions[:, decoder._graph.pstate[start]] = 0.0
        search = ViterbiSearch(decoder)
        search.advance(emissions)
        assert search.results() == []
        # The final result is the best live token's path: the word its
        # state lies in, scored by the token alone.
        delta = search._now[0]
        assert int(delta.argmax()) == start
        (result,) = decoder._search(emissions)
        assert result == DecodeResult("play", ("play",), float(delta[start]), 20)
        assert search.final(5) == [result]

    def test_final_needs_a_frame_and_a_word(self, gmm_model):
        decoder = Decoder(gmm_model, BigramLanguageModel(["play"]), beam=0.0)
        search = ViterbiSearch(decoder)
        with pytest.raises(DecodingError):
            search.final()
        # The lead silence wins every frame: the best live token lies in no
        # word, so there is no transcript to return.
        emissions = np.full((20, N_EMISSION_STATES), -50.0)
        emissions[:, phoneme_state_id(SILENCE, 0)] = 0.0
        search.advance(emissions)
        assert search.results() == []
        with pytest.raises(DecodingError):
            search.final()

    def test_linked_words_precede_the_live_word(self, gmm_model):
        # "play" is spoken, then the first state of "music" holds on past
        # the beam: the best live token links back through "play".
        decoder = Decoder(gmm_model, BigramLanguageModel(["play music"]), beam=10.0)
        graph = decoder._graph
        play, music = (graph.starts[decoder.vocabulary.index(w)] for w in ("play", "music"))
        n_play = STATES_PER_PHONEME * len(pronounce("play"))
        path = [*graph.pstate[play : play + n_play], graph.pstate[music]]
        emissions = np.full((len(path) + 20, N_EMISSION_STATES), -50.0)
        for frame, state in enumerate(path):
            emissions[frame, state] = 0.0
        emissions[len(path) :, graph.pstate[music]] = 0.0
        search = ViterbiSearch(decoder)
        search.advance(emissions)
        assert search.results() == []
        (result,) = search.final()
        assert result.words == ("play", "music")

    def test_one_link_per_live_source(self, gmm_model, language_model, emissions):
        decoder = Decoder(gmm_model, language_model, beam=None)
        end_states = decoder._graph.end_states
        search = ViterbiSearch(decoder)
        for row in range(len(emissions)):
            tokens = search._now[0][end_states].max(axis=0)
            live = int((tokens > _ALIVE).sum())
            before = len(search._links)
            search.advance(emissions[row : row + 1])
            assert len(search._links) - before <= live
        oracle = OracleViterbiSearch(decoder)
        oracle.advance(emissions)
        # The oracle links every entered start, at most V = 19 a source here.
        assert 0 < 5 * len(search._links) <= oracle._n_links
        assert search.results(5) == oracle.results(5) != []

    @pytest.mark.parametrize("width", [10, 500])
    def test_emission_width_is_checked(self, gmm_decoder, width):
        # A narrow matrix used to die on a bare IndexError and a wide one
        # was decoded as if its first columns were the emission states.
        search = ViterbiSearch(gmm_decoder)
        with pytest.raises(DecodingError):
            search.advance(np.zeros((5, width)))
        assert search.n_frames == 0

    @pytest.mark.parametrize("vocabulary", [["to", "too"], ["too", "to"]])
    def test_exact_ties_go_to_the_lowest_word_index(self, gmm_model, vocabulary):
        # Homophones under a language model that cannot tell them apart:
        # every cross-word candidate and every final score ties exactly,
        # whichever order the model met the words in.
        decoder = Decoder(gmm_model, BigramLanguageModel(vocabulary))
        lowest, other = decoder.vocabulary
        wave = Synthesizer(seed=4).synthesize("to too to")
        first, second = decoder.decode_nbest(wave)[:2]
        assert len(first.words) > 1
        assert set(first.words) == {lowest}
        assert second.log_score == first.log_score
        assert second.words == first.words[:-1] + (other,)


# -- the oracles: the search bodies it replaced ---------------------------------------


class DoubleBufferViterbiSearch:
    """``ViterbiSearch`` as it was before the frame step ran in place: each
    frame read one set of buffers and wrote the other, and ``results``
    ranked every word with a stable sort."""

    def __init__(self, decoder):
        self._decoder = decoder
        n_states = len(decoder._graph.pstate)
        n_words = len(decoder.vocabulary)
        self._now = _token_buffers(n_states)
        self._ahead = _token_buffers(n_states)
        self._stay = np.empty(n_states)
        self._mask = np.empty(n_states, dtype=bool)
        self._scores = np.empty(n_states)
        self._ends = np.empty((2, n_words + 1))
        self._end_tokens = np.empty(n_words + 1)
        self._offer = np.empty(n_words)
        self._wins = np.empty(n_words, dtype=bool)
        self._links = []
        self.n_frames = 0

    def advance(self, emissions):
        emissions = np.asarray(emissions, dtype=np.float64)
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
            next(rows).take(pstate, out=scores, mode="clip")
            delta = now[0]
            delta[graph.starts] = scores[graph.starts] + (
                decoder._lm_scores[0] + INSERTION_PENALTY
            )
            delta[0] = scores[0]

        for row in rows:
            delta, left_delta, hist, left_hist = now
            new_delta, _, new_hist, _ = ahead
            np.add(delta, log_self, out=stay)
            np.add(left_delta, advance_scores, out=new_delta)
            np.greater(new_delta, stay, out=mask)
            np.maximum(new_delta, stay, out=new_delta)
            np.copyto(new_hist, hist)
            np.copyto(new_hist, left_hist, where=mask)

            delta.take(end_states, out=ends, mode="clip")
            np.maximum(from_phone, from_sil, out=end_tokens)
            live = (end_tokens > _ALIVE).nonzero()[0]
            if len(live):
                self._enter_words(live.tolist(), hist, new_delta, new_hist)

            row.take(pstate, out=scores, mode="clip")
            np.add(new_delta, scores, out=new_delta)
            if beam is not None:
                np.less(new_delta, new_delta.max() - beam, out=mask)
                np.putmask(new_delta, mask, _NEG_INF)

            now, ahead = ahead, now

        self._now, self._ahead = now, ahead
        self.n_frames += len(emissions)

    def _enter_words(self, live, hist, new_delta, new_hist):
        decoder = self._decoder
        graph = decoder._graph
        lm_scores, penalty, log_adv = (
            decoder._lm_scores, INSERTION_PENALTY, decoder.log_adv
        )
        (from_phone, from_sil), end_tokens = self._ends, self._end_tokens
        offer, wins = self._offer, self._wins
        start_delta = new_delta.take(graph.starts)
        start_hist = new_hist.take(graph.starts)
        for source in live:
            np.add(lm_scores[source], end_tokens[source], out=offer)
            np.add(offer, penalty, out=offer)
            np.add(offer, log_adv, out=offer)
            np.greater(offer, start_delta, out=wins)
            if not np.count_nonzero(wins):
                continue
            better = int(from_sil[source] > from_phone[source])
            link = int(hist[graph.end_states[better, source]])
            if source:
                self._links.append((source - 1, link))
                link = len(self._links) - 1
            np.putmask(start_delta, wins, offer)
            np.putmask(start_hist, wins, link)
        new_delta[graph.starts] = start_delta
        new_hist[graph.starts] = start_hist

    def results(self, n_best=1):
        if self.n_frames == 0:
            return []
        vocabulary = self._decoder.vocabulary
        delta, _, hist, _ = self._now
        phone_ends, sil_ends = self._decoder._graph.end_states[:, 1:]
        use_sil = delta[sil_ends] > delta[phone_ends]
        end_scores = np.where(use_sil, delta[sil_ends], delta[phone_ends])
        end_states = np.where(use_sil, sil_ends, phone_ends)
        final = end_scores + self._decoder._eos_scores
        results = []
        for word_index in np.argsort(-final, kind="stable")[:n_best]:
            score = float(final[word_index])
            if score <= _ALIVE:
                break
            words = [vocabulary[int(word_index)]]
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


_INITIAL_LINKS = 1024  # link-table rows before the first doubling


class OracleViterbiSearch:
    """``ViterbiSearch`` as it was before word entry went per live source.

    The graph arrays and the LM table are read back into the layout that
    body used (word ends and the lead-silence end as separate arrays, the
    BOS row last); everything after ``__init__`` is that body.
    """

    def __init__(self, decoder):
        self._decoder = decoder
        graph = decoder._graph
        self.starts = graph.starts
        self.phone_ends, self.sil_ends = graph.end_states[:, 1:]
        self.lead_sil_end = int(graph.end_states[0, 0])
        self.no_advance = graph.no_advance
        self.ends = np.array([*self.phone_ends, *self.sil_ends, self.lead_sil_end])
        self.lm_scores = np.roll(decoder._lm_scores, -1, axis=0)
        n_states = len(graph.pstate)
        self._delta = np.full(n_states, _NEG_INF)
        self._hist = np.full(n_states, -1, dtype=np.int64)
        self._next_delta = np.empty(n_states)
        self._next_hist = np.empty(n_states, dtype=np.int64)
        self._stay = np.empty(n_states)
        self._mask = np.empty(n_states, dtype=bool)
        self._ends = np.empty(len(self.ends))
        self._links = np.empty((_INITIAL_LINKS, 2), dtype=np.int64)
        self._n_links = 0
        self.n_frames = 0

    def advance(self, emissions):
        decoder = self._decoder
        start_states = self.starts
        log_self, log_adv, beam = decoder.log_self, decoder.log_adv, decoder.beam
        frame_scores = emissions[:, decoder._graph.pstate]  # (T, S)
        delta, hist = self._delta, self._hist
        new_delta, new_hist = self._next_delta, self._next_hist
        stay, mask, ends = self._stay, self._mask, self._ends

        if self.n_frames == 0 and len(frame_scores):
            bos_scores = self.lm_scores[len(decoder.vocabulary)]
            delta[start_states] = (
                frame_scores[0, start_states]
                + (bos_scores + INSERTION_PENALTY)
            )
            delta[0] = frame_scores[0, 0]
            frame_scores = frame_scores[1:]

        for scores in frame_scores:
            np.add(delta, log_self, out=stay)
            np.add(delta[:-1], log_adv, out=new_delta[1:])
            new_delta[self.no_advance] = _NEG_INF
            np.greater(new_delta, stay, out=mask)
            np.maximum(new_delta, stay, out=new_delta)
            np.copyto(new_hist, hist)
            np.copyto(new_hist[1:], hist[:-1], where=mask[1:])

            delta.take(self.ends, out=ends)
            if ends.max() > _ALIVE:
                self._enter_words(ends, hist, new_delta, new_hist)

            np.add(new_delta, scores, out=new_delta)
            if beam is not None:
                np.less(new_delta, new_delta.max() - beam, out=mask)
                np.copyto(new_delta, _NEG_INF, where=mask)

            delta, new_delta = new_delta, delta
            hist, new_hist = new_hist, hist

        self._delta, self._hist = delta, hist
        self._next_delta, self._next_hist = new_delta, new_hist
        self.n_frames += len(emissions)

    def _enter_words(self, ends, hist, new_delta, new_hist):
        decoder = self._decoder
        n_words = len(decoder.vocabulary)
        start_states = self.starts
        from_phone, from_sil = ends[:n_words], ends[n_words:-1]
        end_scores = np.maximum(from_phone, from_sil)
        alive = (end_scores > _ALIVE).nonzero()[0]
        lead_alive = ends[-1] > _ALIVE
        if len(alive):
            candidate = end_scores[alive, None] + self.lm_scores[alive]
            incoming = entry_delta = (
                candidate.max(axis=0) + INSERTION_PENALTY + decoder.log_adv
            )
        if lead_alive:
            incoming = bos_entry = (
                ends[-1]
                + self.lm_scores[n_words]
                + INSERTION_PENALTY
                + decoder.log_adv
            )
            if len(alive):
                incoming = np.maximum(entry_delta, bos_entry)

        entered = (incoming > new_delta[start_states]).nonzero()[0]
        new_delta[start_states[entered]] = incoming[entered]
        if lead_alive:
            new_hist[start_states[entered]] = hist[self.lead_sil_end]
            if len(alive):  # the silence keeps exact ties
                entered = entered[entry_delta[entered] > bos_entry[entered]]
        if not len(alive) or not len(entered):
            return
        prev_words = alive[candidate[:, entered].argmax(axis=0)]
        prev_ends = np.where(
            from_sil[prev_words] > from_phone[prev_words],
            self.sil_ends[prev_words],
            self.phone_ends[prev_words],
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

    def results(self, n_best=1):
        if self.n_frames == 0:
            return []
        vocabulary = self._decoder.vocabulary
        end_from_phone = self._delta[self.phone_ends]
        end_from_sil = self._delta[self.sil_ends]
        use_sil = end_from_sil > end_from_phone
        end_scores = np.where(use_sil, end_from_sil, end_from_phone)
        end_states = np.where(use_sil, self.sil_ends, self.phone_ends)
        final = end_scores + self._decoder._eos_scores
        results = []
        for word_index in np.argsort(-final, kind="stable")[:n_best]:
            score = float(final[word_index])
            if score <= _ALIVE:
                break
            words = [vocabulary[int(word_index)]]
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


WORDS = sorted({word for sentence in all_sentences() for word in sentence.split()} | {"too"})
#: Language models over a drawn vocabulary (the decoder's vocabulary is its
#: language model's).
LANGUAGE_MODELS = {
    # Every word its own sentence: all words score alike, so cross-word
    # candidates tie exactly.
    "flat": BigramLanguageModel,
    # One sentence in drawn order: a chain of seen bigrams among unseen ones.
    "chain": lambda words: BigramLanguageModel([" ".join(words)]),
}


@st.composite
def search_cases(draw, beams=(None, 10.0, 200.0), repeated_cuts=False):
    """``(vocabulary, language model name, beam, emissions, block bounds)``;
    with ``repeated_cuts`` a cut may repeat, so blocks may be empty."""
    vocabulary = draw(st.lists(
        st.one_of(st.sampled_from(["to", "too"]), st.sampled_from(WORDS)),
        min_size=1, max_size=6, unique=True,
    ))
    # Noise, with the states of a few spoken words (and the pause after
    # some) standing out for ``dwell`` frames each, so word ends do survive
    # and hypotheses carry histories; no words spoken leaves pure noise.
    spoken = draw(st.lists(st.tuples(st.sampled_from(vocabulary), st.booleans()), max_size=4))
    path = [
        phoneme_state_id(symbol, sub_state)
        for word, pause in spoken
        for symbol in [*pronounce(word), *([SILENCE] if pause else [])]
        for sub_state in range(STATES_PER_PHONEME)
    ]
    dwell = draw(st.integers(1, 3))
    n_frames = len(path) * dwell + draw(st.integers(0 if path else 1, 6))
    scale = draw(st.sampled_from([0.5, 20.0, 100.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    emissions = -scale * (1.0 + rng.random((n_frames, N_EMISSION_STATES)))
    for index, state in enumerate(path):
        emissions[index * dwell : (index + 1) * dwell, state] += scale
    if draw(st.booleans()):  # a coarse grid: equal sums are exact ties
        emissions = np.round(emissions * 2) / 2
    collection = st.lists if repeated_cuts else st.sets
    cuts = sorted(draw(collection(st.integers(0, n_frames), max_size=6)))
    return (
        vocabulary,
        draw(st.sampled_from(sorted(LANGUAGE_MODELS))),
        draw(st.sampled_from(beams)),
        emissions,
        [0, *cuts, n_frames],
    )


def as_rows(results):
    return [(r.text, r.words, r.log_score.hex(), r.n_frames) for r in results]


class TestSearchEqualsOracle:
    """Any vocabulary, emissions, beam and block split: the same 5-best."""

    @settings(max_examples=150, deadline=None)
    @given(search_cases())
    def test_results_equal_the_parent_body(self, case):
        vocabulary, lm_name, beam, emissions, bounds = case
        # No acoustic model: the search is handed its emissions.
        decoder = Decoder(None, LANGUAGE_MODELS[lm_name](vocabulary), beam=beam)
        oracle = OracleViterbiSearch(decoder)
        oracle.advance(emissions)
        search = ViterbiSearch(decoder)
        for start, stop in zip(bounds, bounds[1:]):
            search.advance(emissions[start:stop])
        assert as_rows(search.results(5)) == as_rows(oracle.results(5))


def live_tokens(search):
    """``(states, score bytes, histories)`` of every live token."""
    delta, _, hist, _ = search._now
    live = (delta > _ALIVE).nonzero()[0]
    return live.tolist(), delta[live].tobytes(), hist[live].tolist()


def adjacent_moves(search):
    """How many pairs of adjacent states both take their left neighbour's
    token in the next frame's shift (read off the search's buffers)."""
    decoder = search._decoder
    delta, left_delta, _, _ = search._now
    moves = left_delta + decoder._advance_scores > delta + decoder.log_self
    return int((moves[1:] & moves[:-1]).sum())


class TestInPlaceStepEqualsDoubleBuffer:
    """The in-place frame step against the two-buffer one it replaced:
    equal hypotheses, links, and live scores and histories after every
    block, for any vocabulary, beam and block split."""

    @settings(max_examples=150, deadline=None)
    @given(search_cases(beams=(None, 0.0, 30.0, 200.0), repeated_cuts=True))
    def test_every_block_equals_the_double_buffer_body(self, case):
        vocabulary, lm_name, beam, emissions, bounds = case
        decoder = Decoder(None, LANGUAGE_MODELS[lm_name](vocabulary), beam=beam)
        oracle = DoubleBufferViterbiSearch(decoder)
        search = ViterbiSearch(decoder)
        for start, stop in zip(bounds, bounds[1:]):
            oracle.advance(emissions[start:stop])
            search.advance(emissions[start:stop])
            assert live_tokens(search) == live_tokens(oracle)
            assert search._links == oracle._links
            for n_best in (1, 5):
                assert as_rows(search.results(n_best)) == as_rows(oracle.results(n_best))

    def test_adjacent_states_moving_in_one_frame(self, gmm_model, language_model):
        # Real speech with no beam: many frames shift a token into a state
        # whose own token moves on in the same frame, where an in-place
        # history move that read its own output would hand on the wrong
        # history.
        decoder = Decoder(gmm_model, language_model, beam=None)
        wave = Synthesizer(seed=12).synthesize("what is the capital of italy")
        emissions = gmm_model.emission_scores(decoder.feature_extractor.extract(wave))
        oracle = DoubleBufferViterbiSearch(decoder)
        search = ViterbiSearch(decoder)
        frames_with_adjacent_moves = 0
        for row in range(len(emissions)):
            frames_with_adjacent_moves += row > 0 and adjacent_moves(search) > 0
            oracle.advance(emissions[row : row + 1])
            search.advance(emissions[row : row + 1])
            assert live_tokens(search) == live_tokens(oracle)
        assert frames_with_adjacent_moves > len(emissions) // 2
        assert search._links == oracle._links
        assert as_rows(search.results(5)) == as_rows(oracle.results(5)) != []
