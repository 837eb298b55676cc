"""End-to-end ASR tests: synthesize → features → acoustic model → Viterbi.

The per-frame step of ``ViterbiSearch`` is held to the body it replaced,
kept at the bottom of this file as ``OracleViterbiSearch``: it links every
entered word start and takes the cross-word maximum over all live word ends
at once, where the search now makes one offer and one link per live source.
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
from repro.asr.decoder import DecodeResult, ViterbiSearch, _ALIVE, _NEG_INF
from repro.asr.features import FeatureConfig
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
        config = FeatureConfig()
        # One phoneme spanning samples [0, 4800) at 16 kHz = 30 frames-ish.
        alignment = [("AA", 0, 4800)]
        labels = label_frames(alignment, n_frames=28, n_samples=4800, feature_config=config)
        # Early frames get sub-state 0, late frames sub-state 2.
        assert labels[0] == phoneme_state_id("AA", 0)
        assert labels[26] == phoneme_state_id("AA", 2)

    def test_uncovered_frames_are_silence(self):
        config = FeatureConfig()
        labels = label_frames([], n_frames=5, n_samples=2000, feature_config=config)
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
        lm = BigramLanguageModel(["hello world"])
        with pytest.raises(DecodingError):
            Decoder(gmm_model, lm, vocabulary=[])

    def test_self_loop_validation(self, gmm_model, language_model):
        with pytest.raises(DecodingError):
            Decoder(gmm_model, language_model, self_loop_prob=1.0)

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

    def test_restricted_vocabulary(self, gmm_model, language_model):
        decoder = Decoder(
            gmm_model, language_model,
            vocabulary=["set", "my", "alarm", "for", "eight", "am"],
        )
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

    def test_beam_that_kills_every_word_end_raises(self, gmm_model, language_model):
        # Every frame is a perfect match for the first state of "play" and a
        # poor one for everything else: the token that stays there outscores
        # any that moves on by more than the beam, so no word ever ends.
        decoder = Decoder(gmm_model, language_model, vocabulary=["play"], beam=10.0)
        emissions = np.full((20, N_EMISSION_STATES), -50.0)
        emissions[:, decoder._graph.pstate[decoder._graph.starts[0]]] = 0.0
        search = ViterbiSearch(decoder)
        search.advance(emissions)
        assert search.results() == []
        with pytest.raises(DecodingError):
            decoder._search(emissions)

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
        # every cross-word candidate and every final score ties exactly.
        decoder = Decoder(gmm_model, BigramLanguageModel(["to", "too"]), vocabulary=vocabulary)
        wave = Synthesizer(seed=4).synthesize("to too to")
        first, second = decoder.decode_nbest(wave, n=2)
        assert len(first.words) > 1
        assert set(first.words) == {vocabulary[0]}
        assert second.log_score == first.log_score
        assert second.words == first.words[:-1] + (vocabulary[1],)


# -- the oracle: the search body at the parent commit ---------------------------------

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
                + (bos_scores + decoder.insertion_penalty)
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
                candidate.max(axis=0) + decoder.insertion_penalty + decoder.log_adv
            )
        if lead_alive:
            incoming = bos_entry = (
                ends[-1]
                + self.lm_scores[n_words]
                + decoder.insertion_penalty
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
LANGUAGE_MODELS = {
    "input set": BigramLanguageModel(all_sentences()),
    # Scores "to" and "too" alike and every other word as equally unseen, so
    # cross-word candidates tie exactly.
    "flat": BigramLanguageModel(["to", "too"]),
}


@st.composite
def search_cases(draw):
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
    cuts = sorted(draw(st.sets(st.integers(0, n_frames), max_size=6)))
    return (
        vocabulary,
        draw(st.sampled_from(sorted(LANGUAGE_MODELS))),
        draw(st.sampled_from([None, 10.0, 200.0])),
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
        decoder = Decoder(None, LANGUAGE_MODELS[lm_name], vocabulary=vocabulary, beam=beam)
        oracle = OracleViterbiSearch(decoder)
        oracle.advance(emissions)
        search = ViterbiSearch(decoder)
        for start, stop in zip(bounds, bounds[1:]):
            search.advance(emissions[start:stop])
        assert as_rows(search.results(5)) == as_rows(oracle.results(5))
