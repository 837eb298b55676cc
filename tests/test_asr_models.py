"""Tests for GMM/DNN acoustic models and the language model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asr import (
    BigramLanguageModel,
    DNNConfig,
    DeepNeuralNetwork,
    DiagonalGMM,
    FeatureExtractor,
    fit_gmm,
    score_naive,
)
from repro.asr import acoustic
from repro.asr.acoustic import SILENCE, label_frames, phoneme_state_id
from repro.asr.audio import SAMPLE_RATE
from repro.asr.gmm import _FIT_BLOCK_ROWS, _by_row_blocks
from repro.asr.lm import BOS, EOS
from repro.asr.phonemes import PHONEME_INDEX
from repro.core.inputset import all_sentences
from repro.errors import ModelError


def _toy_gmm():
    means = np.array([[0.0, 0.0], [5.0, 5.0]])
    precisions = np.ones((2, 2))
    log_weights = np.log(np.array([0.5, 0.5]))
    return DiagonalGMM(means, precisions, log_weights)


class TestDiagonalGMM:
    def test_validation(self):
        with pytest.raises(ModelError):
            DiagonalGMM(np.zeros((2, 3)), np.ones((3, 2)), np.zeros(2))
        with pytest.raises(ModelError):
            DiagonalGMM(np.zeros((2, 3)), np.ones((2, 3)), np.zeros(3))
        with pytest.raises(ModelError):
            DiagonalGMM(np.zeros((2, 3)), -np.ones((2, 3)), np.zeros(2))

    def test_likelihood_peaks_at_means(self):
        gmm = _toy_gmm()
        at_mean = gmm.score(np.array([0.0, 0.0]))
        away = gmm.score(np.array([2.5, 2.5]))
        assert at_mean > away

    def test_matches_exact_density(self):
        # Single-component unit-variance GMM equals the analytic Gaussian.
        gmm = DiagonalGMM(np.zeros((1, 2)), np.ones((1, 2)), np.zeros(1))
        x = np.array([1.0, -1.0])
        expected = -0.5 * (2 * np.log(2 * np.pi) + x @ x)
        assert gmm.score(x) == pytest.approx(expected)

    def test_naive_matches_vectorized(self):
        gmm = _toy_gmm()
        rng = np.random.default_rng(0)
        features = rng.normal(size=(20, 2)) * 3
        assert np.allclose(score_naive(gmm, features), gmm.log_likelihood(features), rtol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            _toy_gmm().log_likelihood(np.zeros((4, 3)))

    def test_weights_shift_scores(self):
        means = np.zeros((2, 1))
        precisions = np.ones((2, 1))
        heavy_first = DiagonalGMM(means, precisions, np.log(np.array([0.9, 0.1])))
        balanced = DiagonalGMM(means, precisions, np.log(np.array([0.5, 0.5])))
        # Identical components: weights are a convex split, total density equal.
        x = np.array([[0.3]])
        assert heavy_first.log_likelihood(x)[0] == pytest.approx(balanced.log_likelihood(x)[0])


class TestFitGMM:
    def test_recovers_two_clusters(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 0.3, (200, 2))
        b = rng.normal(4.0, 0.3, (200, 2))
        gmm = fit_gmm(np.vstack([a, b]), n_components=2, n_iterations=15)
        centers = sorted(gmm.means[:, 0])
        assert centers[0] == pytest.approx(0.0, abs=0.3)
        assert centers[1] == pytest.approx(4.0, abs=0.3)

    def test_insufficient_samples(self):
        with pytest.raises(ModelError):
            fit_gmm(np.zeros((2, 3)), n_components=4)

    def test_fitted_likelihood_beats_offset_model(self):
        rng = np.random.default_rng(4)
        data = rng.normal(1.0, 0.5, (300, 3))
        fitted = fit_gmm(data, n_components=2)
        shifted = DiagonalGMM(fitted.means + 10.0, fitted.precisions, fitted.log_weights)
        assert fitted.log_likelihood(data).mean() > shifted.log_likelihood(data).mean()

    def test_row_blocks_score_as_the_whole_array(self):
        # fit_gmm takes a block of rows at a time to bound its temporaries
        # (k-means' (rows, K, D) distances, the E-step's (rows, 2D) moments);
        # the last block is a partial one.
        data = np.random.default_rng(5).normal(size=(2 * _FIT_BLOCK_ROWS + 77, 13))
        gmm = fit_gmm(data[:500], n_components=4, n_iterations=2)
        whole = gmm.component_log_likelihood(data)
        assert _by_row_blocks(gmm.component_log_likelihood, data).tobytes() == whole.tobytes()


def oracle_label_frames(alignment, n_frames, feature_config, sample_rate=SAMPLE_RATE):
    """``label_frames`` as it was: every segment against every frame."""
    hop = int(feature_config.frame_hop * sample_rate)
    frame_size = int(feature_config.frame_length * sample_rate)
    labels = np.full(n_frames, phoneme_state_id(SILENCE, 1), dtype=np.int64)
    for symbol, start, end in alignment:
        if end <= start:
            continue
        span = end - start
        for frame in range(n_frames):
            center = frame * hop + frame_size // 2
            if start <= center < end:
                third = min(int(3 * (center - start) / span), 2)
                labels[frame] = phoneme_state_id(symbol, third)
    return labels


class TestLabelFramesEqualsTheFrameLoop:
    def test_every_training_take(self, monkeypatch):
        takes = []

        def checked(alignment, n_frames, n_samples, config, sample_rate):
            labels = label_frames(alignment, n_frames, n_samples, config, sample_rate)
            expected = oracle_label_frames(alignment, n_frames, config, sample_rate)
            assert labels.dtype == expected.dtype
            assert np.array_equal(labels, expected), alignment
            takes.append(n_frames)
            return labels

        monkeypatch.setattr(acoustic, "label_frames", checked)
        data = acoustic.collect_training_data(all_sentences(), repetitions=3)
        assert len(takes) == 3 * len(all_sentences()) and sum(takes) == len(data.labels)

    @settings(deadline=None, max_examples=80)
    @given(
        segments=st.lists(
            st.tuples(
                st.sampled_from([SILENCE, *sorted(PHONEME_INDEX)[:5]]),
                st.integers(-400, 6000),
                st.integers(-400, 6000),
            ),
            max_size=8,
        ),
        n_frames=st.integers(0, 30),
    )
    def test_overlapping_empty_and_out_of_range_segments(self, segments, n_frames):
        # Synthesis alignments are ordered and disjoint; the loop's contract
        # (later segments overwrite, empty ones are skipped, samples past the
        # last frame label nothing) is wider.
        config = FeatureExtractor().config
        assert np.array_equal(
            label_frames(segments, n_frames, 6000, config),
            oracle_label_frames(segments, n_frames, config),
        )


class TestDNN:
    def _xor_data(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(np.int64)
        return x, y

    def test_learns_xor(self):
        x, y = self._xor_data()
        config = DNNConfig(input_dim=2, n_classes=2, hidden_sizes=(32,), context=0,
                           epochs=60, learning_rate=0.1, seed=1)
        net = DeepNeuralNetwork(config)
        losses = net.fit(x, y)
        assert losses[-1] < losses[0]
        assert (net.predict(x) == y).mean() > 0.95

    def test_log_posteriors_normalized(self):
        config = DNNConfig(input_dim=3, n_classes=4, hidden_sizes=(8,), context=1)
        net = DeepNeuralNetwork(config)
        posts = net.log_posteriors(np.random.default_rng(0).normal(size=(5, 3)))
        assert posts.shape == (5, 4)
        assert np.allclose(np.exp(posts).sum(axis=1), 1.0)

    def test_context_stacking_shape(self):
        config = DNNConfig(input_dim=4, n_classes=2, context=2)
        net = DeepNeuralNetwork(config)
        stacked = net.stack_context(np.zeros((7, 4)))
        assert stacked.shape == (7, 20)

    def test_stacking_validates_dimension(self):
        config = DNNConfig(input_dim=4, n_classes=2)
        with pytest.raises(ModelError):
            DeepNeuralNetwork(config).stack_context(np.zeros((7, 3)))

    def test_fit_validates_lengths(self):
        config = DNNConfig(input_dim=2, n_classes=2, context=0)
        with pytest.raises(ModelError):
            DeepNeuralNetwork(config).fit(np.zeros((5, 2)), np.zeros(4, dtype=int))

    def test_priors_updated_by_fit(self):
        x, y = self._xor_data(100)
        config = DNNConfig(input_dim=2, n_classes=2, context=0, epochs=1)
        net = DeepNeuralNetwork(config)
        net.fit(x, y)
        assert np.exp(net.log_priors).sum() == pytest.approx(1.0, abs=0.01)


class TestBigramLM:
    def test_conditional_probabilities_sum_to_one(self):
        lm = BigramLanguageModel(["a b c", "a b d"])
        words = lm.vocabulary + [EOS]
        total = sum(np.exp(lm.log_prob(w, "b")) for w in words)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_seen_bigram_preferred(self):
        lm = BigramLanguageModel(["set my alarm", "set my timer"])
        assert lm.log_prob("my", "set") > lm.log_prob("timer", "set")

    def test_sentence_log_prob_ordering(self):
        lm = BigramLanguageModel(["set my alarm for eight am"] * 3 + ["what is this"])
        assert lm.sentence_log_prob("set my alarm") > lm.sentence_log_prob("alarm my set")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ModelError):
            BigramLanguageModel([])
        with pytest.raises(ModelError):
            BigramLanguageModel(["a"], add_k=0)

    def test_transition_matrix_shape(self):
        lm = BigramLanguageModel(["a b", "b c"])
        words = lm.vocabulary
        matrix = lm.transition_matrix(words)
        assert matrix.shape == (len(words) + 1, len(words))
        # BOS row matches log_prob with BOS context.
        for column, word in enumerate(words):
            assert matrix[len(words), column] == pytest.approx(lm.log_prob(word, BOS))

    def test_case_insensitive(self):
        lm = BigramLanguageModel(["Set My Alarm"])
        assert lm.log_prob("my", "set") == lm.log_prob("MY", "SET")
