"""End-to-end ASR tests: synthesize → features → acoustic model → Viterbi."""

import numpy as np
import pytest

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
    label_frames,
    phoneme_state_id,
)
from repro.asr import decoder as decoder_module
from repro.asr.decoder import ViterbiSearch
from repro.asr.features import FeatureConfig
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

    def test_link_table_growth_keeps_earlier_links(
        self, gmm_model, language_model, emissions, monkeypatch
    ):
        decoder = Decoder(gmm_model, language_model, beam=None)
        roomy = ViterbiSearch(decoder)
        roomy.advance(emissions)
        assert roomy._n_links > len(roomy._links) // 2  # it did have to grow
        monkeypatch.setattr(decoder_module, "_INITIAL_LINKS", 1)
        cramped = ViterbiSearch(decoder)
        assert len(cramped._links) == 1
        cramped.advance(emissions)
        assert cramped._n_links == roomy._n_links
        assert cramped.results(5) == roomy.results(5)

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
