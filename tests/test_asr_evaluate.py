"""Tests for ASR evaluation: WER, n-best decoding, noise robustness."""

import pytest
from hypothesis import given, strategies as st

from repro.asr import (
    BigramLanguageModel,
    Decoder,
    Synthesizer,
    collect_training_data,
    train_gmm_acoustic_model,
)
from repro.asr.evaluate import (
    WERResult,
    evaluate_wer,
    noise_robustness_sweep,
    word_edit_distance,
)
from repro.asr.decoder import N_BEST
from repro.errors import ConfigurationError

SENTENCES = [
    "set my alarm for eight am",
    "what is the capital of italy",
    "play some music now",
]


@pytest.fixture(scope="module")
def decoder():
    data = collect_training_data(SENTENCES, repetitions=4)
    model = train_gmm_acoustic_model(data)
    return Decoder(model, BigramLanguageModel(SENTENCES))


class TestEditDistance:
    def test_identical(self):
        assert word_edit_distance(["a", "b"], ["a", "b"]) == (0, 0, 0)

    def test_substitution(self):
        assert word_edit_distance(["a", "b"], ["a", "x"]) == (1, 0, 0)

    def test_deletion(self):
        assert word_edit_distance(["a", "b", "c"], ["a", "c"]) == (0, 1, 0)

    def test_insertion(self):
        assert word_edit_distance(["a", "c"], ["a", "b", "c"]) == (0, 0, 1)

    def test_empty_hypothesis_is_all_deletions(self):
        assert word_edit_distance(["a", "b", "c"], []) == (0, 3, 0)

    def test_empty_reference_is_all_insertions(self):
        assert word_edit_distance([], ["a", "b"]) == (0, 0, 2)

    @given(st.lists(st.sampled_from("abcd"), max_size=8),
           st.lists(st.sampled_from("abcd"), max_size=8))
    def test_total_cost_bounds(self, ref, hyp):
        s, d, i = word_edit_distance(ref, hyp)
        cost = s + d + i
        assert abs(len(ref) - len(hyp)) <= cost <= max(len(ref), len(hyp))

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=8))
    def test_self_distance_zero(self, words):
        assert word_edit_distance(words, words) == (0, 0, 0)


class TestWER:
    def test_perfect_decoding_wer_zero(self, decoder):
        result = evaluate_wer(decoder, SENTENCES, Synthesizer(seed=99))
        assert result.wer == 0.0
        assert result.sentence_accuracy == 1.0

    def test_wer_result_math(self):
        result = WERResult(substitutions=1, deletions=1, insertions=0,
                           reference_words=10, exact_sentences=1, total_sentences=2)
        assert result.wer == pytest.approx(0.2)
        assert result.sentence_accuracy == pytest.approx(0.5)

    def test_empty_sentence_list_rejected(self, decoder):
        with pytest.raises(ConfigurationError):
            evaluate_wer(decoder, [], Synthesizer())

    def test_noise_sweep_monotone_tail(self, decoder):
        sweep = noise_robustness_sweep(
            decoder, SENTENCES, noise_levels=(0.02, 0.4)
        )
        assert sweep[0.02].wer <= sweep[0.4].wer

    def test_extreme_noise_degrades(self, decoder):
        sweep = noise_robustness_sweep(decoder, SENTENCES, noise_levels=(0.5,))
        assert sweep[0.5].wer > 0.2


class TestNBest:
    def test_top_hypothesis_matches_decode(self, decoder):
        wave = Synthesizer(seed=11).synthesize("set my alarm")
        single = decoder.decode_waveform(wave)
        nbest = decoder.decode_nbest(wave)
        assert 1 <= len(nbest) <= N_BEST
        assert nbest[0].text == single.text
        assert nbest[0].log_score == pytest.approx(single.log_score)

    def test_scores_descending(self, decoder):
        wave = Synthesizer(seed=12).synthesize("what is the capital of italy")
        nbest = decoder.decode_nbest(wave)
        scores = [hyp.log_score for hyp in nbest]
        assert scores == sorted(scores, reverse=True)

    def test_confidences_form_distribution(self, decoder):
        wave = Synthesizer(seed=13).synthesize("play some music now")
        nbest = decoder.decode_nbest(wave)
        confidences = Decoder.nbest_confidences(nbest)
        assert len(confidences) == len(nbest)
        assert sum(confidences) == pytest.approx(1.0)
        assert confidences[0] == max(confidences)

    def test_invalid_n(self, decoder):
        # The list length is fixed: at least the best path, at most N_BEST.
        assert N_BEST >= 1
        nbest = decoder.decode_nbest(Synthesizer().synthesize("play"))
        assert 1 <= len(nbest) <= N_BEST

    def test_empty_confidences(self):
        assert Decoder.nbest_confidences([]) == []
