"""Tests for GMM/DNN acoustic models and the language model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asr import (
    BigramLanguageModel,
    DNNConfig,
    DeepNeuralNetwork,
    DiagonalGMM,
    fit_gmm,
)
from repro.asr import acoustic
from repro.asr.acoustic import (
    FALLBACK_PENALTY,
    N_EMISSION_STATES,
    SILENCE,
    GMMAcousticModel,
    label_frames,
    phoneme_state_id,
)
from repro.asr.audio import SAMPLE_RATE
from repro.asr.features import FRAME_HOP, FRAME_LENGTH
from repro.asr.gmm import _FIT_BLOCK_ROWS, _by_row_blocks, log_sum_exp, record_scoring
from repro.asr.lm import BOS, EOS
from repro.asr.phonemes import PHONEME_INDEX
from repro.core.inputset import all_sentences
from repro.errors import ModelError


def log_likelihood(gmm: DiagonalGMM, features: np.ndarray) -> np.ndarray:
    """(T,) log p(x_t) of one GMM: log-sum-exp over its components, charged
    as one scoring (the per-state call the stacked bank replaced)."""
    component = gmm.component_log_likelihood(features)
    record_scoring(len(component), gmm.n_components, gmm.dimension)
    return log_sum_exp(component)


def score_naive(gmm: DiagonalGMM, features: np.ndarray) -> np.ndarray:
    """Literal three-nested-loop GMM scoring (the CMP baseline kernel).

    Outer loop over feature vectors, middle loop over mixture components
    (the log-summation the paper could not parallelize), inner loop over
    dimensions (the log-differential unit it fully parallelized on FPGA).
    """
    features = np.atleast_2d(features)
    n_frames = features.shape[0]
    out = np.empty(n_frames)
    for t in range(n_frames):
        total = -np.inf
        for k in range(gmm.n_components):
            acc = gmm.factors[k]
            for d in range(gmm.dimension):
                diff = features[t, d] - gmm.means[k, d]
                acc -= 0.5 * gmm.precisions[k, d] * diff * diff
            total = max(total, acc) + np.log1p(np.exp(-abs(total - acc)))
        out[t] = total
    return out


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
        at_mean, away = log_likelihood(gmm, np.array([[0.0, 0.0], [2.5, 2.5]]))
        assert at_mean > away

    def test_matches_exact_density(self):
        # Single-component unit-variance GMM equals the analytic Gaussian.
        gmm = DiagonalGMM(np.zeros((1, 2)), np.ones((1, 2)), np.zeros(1))
        x = np.array([1.0, -1.0])
        expected = -0.5 * (2 * np.log(2 * np.pi) + x @ x)
        assert log_likelihood(gmm, x[None, :])[0] == pytest.approx(expected)

    def test_naive_matches_vectorized(self):
        gmm = _toy_gmm()
        rng = np.random.default_rng(0)
        features = rng.normal(size=(20, 2)) * 3
        assert np.allclose(score_naive(gmm, features), log_likelihood(gmm, features), rtol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            log_likelihood(_toy_gmm(), np.zeros((4, 3)))

    def test_weights_shift_scores(self):
        means = np.zeros((2, 1))
        precisions = np.ones((2, 1))
        heavy_first = DiagonalGMM(means, precisions, np.log(np.array([0.9, 0.1])))
        balanced = DiagonalGMM(means, precisions, np.log(np.array([0.5, 0.5])))
        # Identical components: weights are a convex split, total density equal.
        x = np.array([[0.3]])
        assert log_likelihood(heavy_first, x)[0] == pytest.approx(log_likelihood(balanced, x)[0])


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
        assert log_likelihood(fitted, data).mean() > log_likelihood(shifted, data).mean()

    def test_row_blocks_score_as_the_whole_array(self):
        # fit_gmm takes a block of rows at a time to bound its temporaries
        # (k-means' (rows, K, D) distances, the E-step's (rows, 2D) moments);
        # the last block is a partial one.
        data = np.random.default_rng(5).normal(size=(2 * _FIT_BLOCK_ROWS + 77, 13))
        gmm = fit_gmm(data[:500], n_components=4, n_iterations=2)
        whole = gmm.component_log_likelihood(data)
        assert _by_row_blocks(gmm.component_log_likelihood, data).tobytes() == whole.tobytes()


def oracle_emission_scores(model: GMMAcousticModel, features: np.ndarray) -> np.ndarray:
    """``GMMAcousticModel.emission_scores`` as it was: a dead-filled
    ``(T, S)`` matrix, member scores gathered per scored state, penalties
    subtracted and the result scattered into it.  The scored states, the
    member each reads and its penalty are rebuilt the way the model's
    constructor built them."""
    members = [(gmm, [state], 0.0) for state, gmm in sorted(model.gmms.items())]
    if model.fallback is not None:
        untrained = [s for s in range(N_EMISSION_STATES) if s not in model.gmms]
        members.append((model.fallback, untrained, FALLBACK_PENALTY))
    members.sort(key=lambda member: member[0].n_components)
    states, feeds, penalties = [], [], []
    for member, (_, scored, penalty) in enumerate(members):
        states += scored
        feeds += [member] * len(scored)
        penalties += [penalty] * len(scored)
    states, feeds, penalties = np.array(states), np.array(feeds), np.array(penalties)

    features = np.atleast_2d(features)
    n_frames = len(features)
    scores = np.full((n_frames, N_EMISSION_STATES), -1e30)
    component = model._bank.component_log_likelihood(features)
    member_scores = np.empty((n_frames, len(members)))
    for k, first_member, n, first_row in model._groups:
        grouped = component[:, first_row : first_row + n * k].reshape(n_frames, n, k)
        member_scores[:, first_member : first_member + n] = log_sum_exp(grouped)
    scores[:, states] = member_scores[:, feeds] - penalties
    return scores


@pytest.fixture(scope="module")
def acoustic_models():
    """A trained model with a fallback GMM, and its state GMMs without one
    (the states they leave untrained score ``-1e30``)."""
    data = acoustic.collect_training_data(all_sentences()[:6], repetitions=2)
    model = acoustic.train_gmm_acoustic_model(data)
    assert len(model.gmms) < N_EMISSION_STATES
    return {"fallback": model, "no fallback": GMMAcousticModel(model.gmms)}, data.features


class TestEmissionScoresEqualTheScatter:
    """The state-ordered gather against the fill/gather/scatter it replaced,
    bytewise, for the whole block and for any split of its rows."""

    @pytest.mark.parametrize("kind", ["fallback", "no fallback"])
    def test_whole_block(self, acoustic_models, kind):
        models, features = acoustic_models
        model = models[kind]
        scores = model.emission_scores(features[:300])
        assert scores.shape == (300, N_EMISSION_STATES) and scores.flags.c_contiguous
        assert scores.tobytes() == oracle_emission_scores(model, features[:300]).tobytes()
        untrained = [s for s in range(N_EMISSION_STATES) if s not in model.gmms]
        dead = (scores[:, untrained] == -1e30).all()
        assert dead == (model.fallback is None)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["fallback", "no fallback"]),
        first=st.integers(0, 500),
        cuts=st.lists(st.integers(0, 40), max_size=5),
    )
    def test_any_split_of_the_rows(self, acoustic_models, kind, first, cuts):
        models, features = acoustic_models
        model = models[kind]
        bounds = [0, *sorted(cuts), 40]
        rows = features[first : first + 40]
        blocks = [model.emission_scores(rows[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
        assert np.vstack(blocks).tobytes() == oracle_emission_scores(model, rows).tobytes()


def oracle_label_frames(alignment, n_frames, sample_rate=SAMPLE_RATE):
    """``label_frames`` as it was: every segment against every frame."""
    hop = int(FRAME_HOP * sample_rate)
    frame_size = int(FRAME_LENGTH * sample_rate)
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

        def checked(alignment, n_frames, sample_rate):
            labels = label_frames(alignment, n_frames, sample_rate)
            expected = oracle_label_frames(alignment, n_frames, sample_rate)
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
        assert np.array_equal(
            label_frames(segments, n_frames),
            oracle_label_frames(segments, n_frames),
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
                           epochs=200)
        net = DeepNeuralNetwork(config)
        losses = net.fit(x, y)
        assert losses[-1] < losses[0]
        assert (net.log_posteriors(x).argmax(axis=1) == y).mean() > 0.95

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

        def sentence_log_prob(words):
            context = [BOS] + words
            return sum(map(lm.log_prob, words + [EOS], context))

        assert sentence_log_prob(["set", "my", "alarm"]) > sentence_log_prob(["alarm", "my", "set"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ModelError):
            BigramLanguageModel([])

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


def oracle_transition_matrix(lm: BigramLanguageModel, words) -> np.ndarray:
    """The per-cell ``log_prob`` loop ``transition_matrix`` ran before it built
    each row from one floor per context."""
    size = len(words)
    matrix = np.empty((size + 1, size))
    for column, word in enumerate(words):
        for row, previous in enumerate(words):
            matrix[row, column] = lm.log_prob(word, previous)
        matrix[size, column] = lm.log_prob(word, BOS)
    return matrix


def generated_sentences(n_words: int, n_sentences: int, seed: int):
    """Seeded sentences over a generated vocabulary of ``n_words`` words,
    Zipf-skewed so contexts range from one successor to hundreds."""
    rng = np.random.default_rng(seed)
    vocabulary = [f"w{index:04d}" for index in range(n_words)]
    weights = 1.0 / np.arange(1, n_words + 1)
    weights /= weights.sum()
    sentences = [
        " ".join(rng.choice(vocabulary, size=rng.integers(1, 12), p=weights))
        for _ in range(n_sentences)
    ]
    # Every word at least once, so the vocabulary is all n_words.
    return sentences + [" ".join(vocabulary[start : start + 7]) for start in range(0, n_words, 7)]


class TestTransitionMatrixEqualsPerCellLoop:
    def test_input_set_vocabulary(self):
        lm = BigramLanguageModel(all_sentences())
        assert len(lm.vocabulary) == 108
        matrix = lm.transition_matrix(lm.vocabulary)
        assert matrix.tobytes() == oracle_transition_matrix(lm, lm.vocabulary).tobytes()

    def test_generated_vocabulary_of_a_thousand_words(self):
        lm = BigramLanguageModel(generated_sentences(1000, 2000, seed=4))
        assert len(lm.vocabulary) == 1000
        matrix = lm.transition_matrix(lm.vocabulary)
        assert matrix.tobytes() == oracle_transition_matrix(lm, lm.vocabulary).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["a", "B", "c", "set", "my", "</s>", "<s>"]), min_size=1, max_size=6
            ),
            min_size=1, max_size=6,
        ),
        st.lists(st.sampled_from(["a", "b", "C", "set", "My", "zzz", "</s>", "<s>"]), max_size=8),
    )
    def test_any_corpus_and_word_list(self, corpus, words):
        # Mixed case, duplicates, unseen words and the boundary symbols too.
        lm = BigramLanguageModel([" ".join(sentence) for sentence in corpus])
        matrix = lm.transition_matrix(words)
        assert matrix.tobytes() == oracle_transition_matrix(lm, words).tobytes()
