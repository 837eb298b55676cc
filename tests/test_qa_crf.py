"""Tests for the linear-chain CRF: inference math, training, tagging quality,
a parent-commit golden, and the loops it replaced, kept here as oracles.

``tests/fixtures/crf_golden.json`` was written by ``compute_golden()`` running
on the commit before the sentence-level feature routine, the padded-gather
emissions and the four-call Viterbi step (eleven f-strings per token, a
fancy-index-and-sum per position, ``np.argmax`` + ``np.arange`` gather per
step, every SGD step re-extracting its sentence's feature strings) and is
never regenerated from the code under test.  Those bodies are
``oracle_token_features``, ``oracle_emission_scores``, ``oracle_decode`` and
``oracle_gradient_step`` below; the trained weights are compared against them
on the machine the test runs on, so no float is pinned across machines.

Regenerate (only from a commit whose output is the intended reference):
``PYTHONPATH=src python tests/test_qa_crf.py``.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.inputset import all_sentences
from repro.errors import ModelError
from repro.obs.context import use_tracer
from repro.obs.counters import record_work
from repro.obs.trace import Tracer
from repro.qa.crf import (
    FeatureMap,
    LinearChainCRF,
    N_TAGS,
    TAGS,
    TaggedSentence,
    default_model,
    evaluate,
    generate_corpus,
    token_features,
    train_crf,
)
from repro.qa.crf import features as crf_features
from repro.qa.crf.model import _logsumexp
from repro.qa.extraction import extract_candidates
from repro.qa.filters import (
    CandidateExtractionFilter,
    FilteredSentence,
    FilterPipeline,
    FilterStats,
)
from repro.qa.question import analyze
from repro.qa.tokenizer import sentences, tokenize_keep_case
from repro.websearch import Corpus, Document

GOLDEN = Path(__file__).parent / "fixtures" / "crf_golden.json"
N_FEATURE_NAMES = 40


class TestFeatureMap:
    def test_interning_is_stable(self):
        fmap = FeatureMap()
        a = fmap.intern("w=the")
        b = fmap.intern("w=cat")
        assert fmap.intern("w=the") == a
        assert a != b

    def test_frozen_map_rejects_new(self):
        fmap = FeatureMap()
        fmap.intern("known")
        fmap.freeze()
        assert fmap.intern("known") == 0
        assert fmap.intern("unknown") == -1
        assert len(fmap) == 1


class TestTokenFeatures:
    def test_includes_word_identity(self):
        features = token_features(["Hello"], 0)
        assert "w=Hello" in features
        assert "lower=hello" in features

    def test_boundary_markers(self):
        features = token_features(["a", "b"], 0)
        assert "BOS" in features
        features = token_features(["a", "b"], 1)
        assert "EOS" in features and "prev=a" in features

    def test_shape_features(self):
        features = token_features(["44th"], 0)
        assert "shape=dx" in features
        assert "hasdigit" in features

    def test_title_case(self):
        assert "istitle" in token_features(["Italy"], 0)


class TestLogSumExp:
    def test_matches_naive(self):
        values = np.array([1.0, 2.0, 3.0])
        assert np.isclose(_logsumexp(values), np.log(np.exp(values).sum()))

    def test_stable_for_large_values(self):
        values = np.array([1000.0, 1000.0])
        assert np.isclose(_logsumexp(values), 1000.0 + np.log(2.0))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_randomized(self, raw):
        values = np.array(raw)
        assert np.isclose(_logsumexp(values), np.log(np.exp(values).sum()), rtol=1e-9)


class TestInference:
    def test_empty_sentence(self):
        model = LinearChainCRF()
        assert model.decode([]) == []
        assert model.marginals([]).shape == (0, N_TAGS)

    def test_decode_length_matches(self):
        model = LinearChainCRF()
        tags = model.decode(["what", "is", "this"])
        assert len(tags) == 3
        assert all(tag in TAGS for tag in tags)

    def test_marginals_are_distributions(self):
        model = default_model()
        marginals = model.marginals(["who", "was", "elected"])
        assert marginals.shape == (3, N_TAGS)
        assert np.allclose(marginals.sum(axis=1), 1.0)
        assert (marginals >= 0).all()

    def test_log_likelihood_nonpositive_normalization(self):
        # exp(ll) is a probability, so ll <= 0 up to float fuzz.
        model = default_model()
        tokens = ("what", "is", "the", "capital", "?")
        best = model.decode(tokens)
        ll = model.log_likelihood(tokens, [TAGS.index(t) for t in best])
        assert ll <= 1e-9

    def test_log_likelihood_mismatched_lengths(self):
        model = LinearChainCRF()
        with pytest.raises(ModelError):
            model.log_likelihood(["a", "b"], [0])

    def test_viterbi_beats_other_paths(self):
        # The Viterbi path's likelihood must be >= a perturbed path's.
        model = default_model()
        tokens = ("who", "wrote", "the", "book", "?")
        best = model.decode(tokens)
        best_ids = [TAGS.index(t) for t in best]
        worse_ids = list(best_ids)
        worse_ids[0] = (worse_ids[0] + 1) % N_TAGS
        assert model.log_likelihood(tokens, best_ids) >= model.log_likelihood(
            tokens, worse_ids
        ) - 1e-9

    def test_forward_backward_consistent_logz(self):
        # logZ from alpha must equal logZ recomputed from beta side.
        model = default_model()
        tokens = ("the", "river", "is", "near", "Paris", ".")
        from repro.qa.crf.features import extract_ids

        emissions = model._emission_scores(extract_ids(tokens, model.feature_map))
        alpha, beta, log_z = model.forward_backward(emissions)
        log_z_from_beta = _logsumexp(model.start + emissions[0] + beta[0])
        assert np.isclose(log_z, log_z_from_beta, rtol=1e-9)


class TestTraining:
    def test_corpus_is_deterministic(self):
        assert generate_corpus(50) == generate_corpus(50)

    def test_tagged_sentence_validates(self):
        with pytest.raises(ValueError):
            TaggedSentence(("a",), ("NOUN", "VERB"))

    def test_training_improves_over_random(self):
        corpus = generate_corpus(200)
        untrained = LinearChainCRF()
        baseline = evaluate(untrained, corpus[:50])
        result = train_crf(corpus, epochs=3)
        assert result.accuracy > baseline
        assert result.accuracy > 0.9  # templates are highly learnable

    def test_default_model_is_cached(self):
        assert default_model() is default_model()

    def test_default_model_tags_known_question(self):
        tags = default_model().decode(("who", "was", "elected", "44th", "president", "?"))
        assert tags[0] == "WH"
        assert tags[-1] == "PUNCT"
        assert "NUM" in tags

    @settings(deadline=None, max_examples=10)
    @given(st.lists(st.sampled_from(["what", "is", "the", "capital", "Italy", "?"]), min_size=1, max_size=8))
    def test_decode_total_on_arbitrary_token_sequences(self, tokens):
        tags = default_model().decode(tokens)
        assert len(tags) == len(tokens)



# -- the oracles: the bodies these kernels had at the parent commit ---------------------


def oracle_shape(token):
    shape_chars = []
    for char in token:
        if char.isupper():
            code = "X"
        elif char.islower():
            code = "x"
        elif char.isdigit():
            code = "d"
        else:
            code = "-"
        if not shape_chars or shape_chars[-1] != code:
            shape_chars.append(code)
    return "".join(shape_chars)


def oracle_token_features(tokens, position):
    token = tokens[position]
    lower = token.lower()
    features = [
        f"w={token}",
        f"lower={lower}",
        f"shape={oracle_shape(token)}",
        f"pref1={lower[:1]}",
        f"pref2={lower[:2]}",
        f"pref3={lower[:3]}",
        f"suf1={lower[-1:]}",
        f"suf2={lower[-2:]}",
        f"suf3={lower[-3:]}",
    ]
    if token.isdigit():
        features.append("isdigit")
    if any(char.isdigit() for char in token):
        features.append("hasdigit")
    if token[:1].isupper():
        features.append("istitle")
    if position == 0:
        features.append("BOS")
    else:
        features.append(f"prev={tokens[position - 1].lower()}")
    if position == len(tokens) - 1:
        features.append("EOS")
    else:
        features.append(f"next={tokens[position + 1].lower()}")
    return features


def oracle_extract_ids(tokens, feature_map):
    """The parent's walk: every call interns, so an unfrozen map grows."""
    return [
        [
            interned
            for name in oracle_token_features(tokens, position)
            if (interned := feature_map.intern(name)) >= 0
        ]
        for position in range(len(tokens))
    ]


def known_ids(tokens, feature_map):
    """Ids of the features the map already holds, unseen ones dropped."""
    return [
        [
            feature_map._ids[name]
            for name in oracle_token_features(tokens, position)
            if name in feature_map._ids
        ]
        for position in range(len(tokens))
    ]


def oracle_logsumexp(values, axis=-1):
    peak = np.max(values, axis=axis, keepdims=True)
    return (peak + np.log(np.sum(np.exp(values - peak), axis=axis, keepdims=True))).squeeze(axis)


def oracle_emission_scores(weights, feature_ids, n_tags=N_TAGS):
    scores = np.zeros((len(feature_ids), n_tags))
    for position, ids in enumerate(feature_ids):
        if ids:
            scores[position] = weights[ids].sum(axis=0)
    return scores


def oracle_decode(model, tokens):
    """The parent's ``decode`` body over ``model``'s parameters."""
    if not tokens:
        return []
    emissions = oracle_emission_scores(model.emission, known_ids(tokens, model.feature_map))
    length = len(tokens)
    tags = model.n_tags
    record_work(
        flops=(length - 1) * 2 * tags * tags + length * tags,
        mem_bytes=8 * (3 * length * tags + (length - 1) * tags * tags),
        items=length,
    )
    delta = np.empty((length, model.n_tags), dtype=np.float64)
    backpointer = np.zeros((length, model.n_tags), dtype=np.int64)
    delta[0] = model.start + emissions[0]
    for t in range(1, length):
        candidate = delta[t - 1][:, None] + model.transition
        backpointer[t] = np.argmax(candidate, axis=0)
        delta[t] = candidate[backpointer[t], np.arange(model.n_tags)] + emissions[t]
    delta[length - 1] += model.end
    best_last = int(np.argmax(delta[length - 1]))
    path = [best_last]
    for t in range(length - 1, 0, -1):
        path.append(int(backpointer[t][path[-1]]))
    path.reverse()
    return [TAGS[tag] for tag in path]


class OracleCRF:
    """The parent's trainable model: parameters, forward-backward, one SGD step."""

    def __init__(self, n_tags=N_TAGS):
        self.feature_map = FeatureMap()
        self.n_tags = n_tags
        self._emission = np.zeros((0, n_tags))
        self.transition = np.zeros((n_tags, n_tags))
        self.start = np.zeros(n_tags)
        self.end = np.zeros(n_tags)

    @property
    def emission(self):
        needed = len(self.feature_map)
        if needed > self._emission.shape[0]:
            extra = np.zeros((needed - self._emission.shape[0], self.n_tags))
            self._emission = np.vstack([self._emission, extra])
        return self._emission

    def forward_backward(self, emissions):
        length = emissions.shape[0]
        alpha = np.empty((length, self.n_tags))
        beta = np.empty((length, self.n_tags))
        alpha[0] = self.start + emissions[0]
        for t in range(1, length):
            alpha[t] = emissions[t] + oracle_logsumexp(
                alpha[t - 1][:, None] + self.transition, axis=0
            )
        beta[length - 1] = self.end
        for t in range(length - 2, -1, -1):
            beta[t] = oracle_logsumexp(
                self.transition + (emissions[t + 1] + beta[t + 1])[None, :], axis=1
            )
        log_z = float(oracle_logsumexp(alpha[length - 1] + self.end, axis=0))
        return alpha, beta, log_z

    def gradient_step(self, tokens, tags, learning_rate, l2=0.0):
        if not tokens:
            return 0.0
        feature_ids = oracle_extract_ids(tokens, self.feature_map)
        weights = self.emission
        emissions = oracle_emission_scores(weights, feature_ids, self.n_tags)
        alpha, beta, log_z = self.forward_backward(emissions)
        length = len(tokens)
        node_marginal = np.exp(alpha + beta - log_z)
        score = self.start[tags[0]] + emissions[0, tags[0]]
        for t in range(1, length):
            score += self.transition[tags[t - 1], tags[t]] + emissions[t, tags[t]]
        score += self.end[tags[-1]]
        log_likelihood = float(score - log_z)
        for t, ids in enumerate(feature_ids):
            if not ids:
                continue
            grad = -node_marginal[t]
            grad[tags[t]] += 1.0
            weights[ids] += learning_rate * (grad - l2 * weights[ids].mean(axis=0))
        if length > 1:
            expected_transitions = np.zeros_like(self.transition)
            for t in range(1, length):
                edge = (
                    alpha[t - 1][:, None]
                    + self.transition
                    + (emissions[t] + beta[t])[None, :]
                )
                expected_transitions += np.exp(edge - log_z)
            observed_transitions = np.zeros_like(self.transition)
            for t in range(1, length):
                observed_transitions[tags[t - 1], tags[t]] += 1.0
            self.transition += learning_rate * (
                observed_transitions - expected_transitions - l2 * self.transition
            )
        start_grad = -node_marginal[0]
        start_grad[tags[0]] += 1.0
        self.start += learning_rate * start_grad
        end_grad = -node_marginal[-1]
        end_grad[tags[-1]] += 1.0
        self.end += learning_rate * end_grad
        return log_likelihood


def oracle_train(corpus, epochs, learning_rate=0.1, l2=1e-4, seed=13):
    """The parent's ``train_crf`` loop; returns the model and the last epoch's total."""
    model = OracleCRF()
    rng = random.Random(seed)
    order = list(range(len(corpus)))
    total = 0.0
    for epoch in range(epochs):
        rng.shuffle(order)
        rate = learning_rate / (1.0 + epoch / 2.0)
        total = 0.0
        for index in order:
            sentence = corpus[index]
            total += model.gradient_step(sentence.tokens, sentence.tag_ids(), rate, l2)
    return model, total


def parameter_bytes(model):
    return [
        np.ascontiguousarray(array).tobytes()
        for array in (model.emission, model.transition, model.start, model.end)
    ]


def random_model(seed, levels=None):
    """A model over the synthetic corpus's features with seeded weights.

    ``levels`` draws every weight from that many values, so that candidate
    scores tie exactly and the first-index tie-break decides tags.
    """
    model = LinearChainCRF()
    for sentence in generate_corpus(40, seed=seed):
        crf_features.extract_ids(sentence.tokens, model.feature_map)
    rng = np.random.default_rng(seed)

    def draw(shape):
        if levels is None:
            return rng.normal(size=shape)
        return rng.integers(0, levels, size=shape).astype(np.float64)

    model.emission[:] = draw(model.emission.shape)
    model.transition[:] = draw(model.transition.shape)
    model.start[:] = draw(model.start.shape)
    model.end[:] = draw(model.end.shape)
    return model


def sentence_of(length, seed):
    rng = random.Random(seed)
    words = [token for sentence in generate_corpus(30, seed=seed) for token in sentence.tokens]
    return [rng.choice(words + ["Unseen", "9zz", "x-ray"]) for _ in range(length)]


def work_of(call):
    """``(result, counters)`` of ``call()`` under a fresh tracer.

    A ``record_work`` lands on the innermost open span (a component section,
    when the filter chain runs), so the totals are summed over all of them.
    """
    tracer = Tracer(seed=1)
    with use_tracer(tracer), tracer.trace(0), tracer.span("work"):
        result = call()
    return result, {
        key: sum(span.attributes.get(key, 0) for span in tracer.spans)
        for key in ("flops", "bytes", "items", "invocations")
    }


TOKEN_LISTS = st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=8)


class TestSentenceFeatures:
    @settings(max_examples=300, deadline=None)
    @given(TOKEN_LISTS)
    def test_token_features_is_a_row_of_the_sentence_routine(self, tokens):
        rows = crf_features.sentence_features(tokens)
        assert len(rows) == len(tokens)
        for position in range(len(tokens)):
            assert token_features(tokens, position) == rows[position]
            assert rows[position] == oracle_token_features(tokens, position)

    @pytest.mark.parametrize(
        "tokens",
        [["1969"], ["44th", "x"], ["²", "Ⅷ", "①"], ["İ", "ǅ", "ß"], ["McDonald's", "U.S"]],
    )
    def test_digit_and_title_flags_read_off_the_shape(self, tokens):
        for position in range(len(tokens)):
            assert token_features(tokens, position) == oracle_token_features(tokens, position)

    def test_extract_ids_interns_in_template_order(self):
        ours, theirs = FeatureMap(), FeatureMap()
        for sentence in generate_corpus(30):
            assert crf_features.extract_ids(sentence.tokens, ours) == oracle_extract_ids(
                sentence.tokens, theirs
            )
        assert ours._ids == theirs._ids and list(ours._ids) == list(theirs._ids)


class TestPaddedGatherEmissions:
    @pytest.mark.parametrize(
        "widths",
        [[0], [1], [16], [0, 0, 0], [1, 0, 16, 3], [16] * 9, [2, 14, 0, 1, 11, 16, 0, 5]],
    )
    def test_bytes_equal_the_per_position_loop(self, widths):
        model = random_model(seed=3)
        rng = random.Random(sum(widths) + len(widths))
        n_features = len(model.feature_map)
        feature_ids = [[rng.randrange(n_features) for _ in range(width)] for width in widths]
        expected = oracle_emission_scores(model.emission, feature_ids)
        actual = model._emission_scores(feature_ids)
        assert actual.shape == expected.shape == (len(widths), N_TAGS)
        assert actual.tobytes() == expected.tobytes()

    def test_unseen_features_are_dropped(self):
        model = random_model(seed=4)
        for length in (1, 2, 9):
            tokens = sentence_of(length, seed=length)[:-1] + ["Unseen9"]
            ids = known_ids(tokens, model.feature_map)
            assert len(ids[-1]) < len(oracle_token_features(tokens, length - 1))
            expected = oracle_emission_scores(model.emission, ids)
            assert model.sentence_potentials(tokens).tobytes() == expected.tobytes()

    def test_no_sentence_and_the_pad_row(self):
        model = random_model(seed=5)
        assert model.sentence_potentials([]).shape == (0, N_TAGS)
        assert model.emission.shape == (len(model.feature_map), N_TAGS)
        # The row that pads ragged id lists stays zero and outside ``emission``.
        assert not model._emission[-1].any()
        assert model._emission.shape[0] == len(model.feature_map) + 1


class TestDecodeEqualsParentBody:
    @pytest.mark.parametrize("length", [1, 2, 9, 40])
    @pytest.mark.parametrize("levels", [None, 2, 3])
    def test_tags_and_work_counters(self, length, levels):
        model = random_model(seed=11, levels=levels)
        for seed in range(6):
            tokens = sentence_of(length, seed)
            expected = work_of(lambda: oracle_decode(model, tokens))
            assert work_of(lambda: model.decode(tokens)) == expected

    @pytest.mark.parametrize("length", [1, 2, 9, 40])
    def test_all_zero_model_ties_to_tag_zero(self, length):
        model = LinearChainCRF()
        tokens = sentence_of(length, seed=1)
        assert model.decode(tokens) == oracle_decode(model, tokens) == [TAGS[0]] * length

    def test_default_model_on_the_corpus(self):
        model = default_model()
        for sentence in golden_sentences()[:25]:
            tokens = tokenize_keep_case(sentence)
            assert model.decode(tokens) == oracle_decode(model, tokens)


class TestTrainingEqualsParentSteps:
    def test_sixty_sentences_two_epochs_byte_equal(self):
        corpus = generate_corpus(60)
        result = train_crf(corpus, epochs=2)
        oracle, total = oracle_train(corpus, epochs=2)
        assert result.model.feature_map._ids == oracle.feature_map._ids
        assert list(result.model.feature_map._ids) == list(oracle.feature_map._ids)
        assert parameter_bytes(result.model) == parameter_bytes(oracle)
        assert result.final_log_likelihood == total / len(corpus)

    def test_gradient_step_by_tokens(self):
        # The public step interns and updates exactly as the loop's cached ids do.
        model, oracle = LinearChainCRF(), OracleCRF()
        for sentence in generate_corpus(20, seed=5) + [TaggedSentence((), ())]:
            ours = model.gradient_step(sentence.tokens, sentence.tag_ids(), 0.1, 1e-4)
            assert ours == oracle.gradient_step(sentence.tokens, sentence.tag_ids(), 0.1, 1e-4)
        assert model.feature_map._ids == oracle.feature_map._ids
        assert parameter_bytes(model) == parameter_bytes(oracle)

    def test_forward_backward_bytes(self):
        model, oracle = random_model(seed=8), OracleCRF()
        oracle.transition, oracle.start, oracle.end = model.transition, model.start, model.end
        for length in (1, 2, 9):
            emissions = model.sentence_potentials(sentence_of(length, seed=length))
            ours, theirs = model.forward_backward(emissions), oracle.forward_backward(emissions)
            assert ours[0].tobytes() == theirs[0].tobytes()
            assert ours[1].tobytes() == theirs[1].tobytes()
            assert ours[2] == theirs[2]


class TestInferenceNeverGrowsTheModel:
    TOKENS = ["who", "was", "elected"]

    @pytest.mark.parametrize(
        "call",
        [
            lambda model, tokens: model.decode(tokens),
            lambda model, tokens: model.marginals(tokens),
            lambda model, tokens: model.log_likelihood(tokens, [0] * len(tokens)),
            lambda model, tokens: model.sentence_potentials(tokens),
        ],
        ids=["decode", "marginals", "log_likelihood", "sentence_potentials"],
    )
    def test_unfrozen_model_is_left_as_found(self, call):
        empty = LinearChainCRF()
        call(empty, self.TOKENS)
        assert len(empty.feature_map) == 0 and empty.emission.shape == (0, N_TAGS)
        # Half-trained: evaluating between epochs must not change what it evaluates.
        model = LinearChainCRF()
        for sentence in generate_corpus(10):
            model.gradient_step(sentence.tokens, sentence.tag_ids(), 0.1)
        before = len(model.feature_map), model.emission.shape, parameter_bytes(model)
        call(model, self.TOKENS + ["Unseen", "44th"])
        assert (len(model.feature_map), model.emission.shape, parameter_bytes(model)) == before
        assert not model.feature_map.frozen

    def test_only_a_gradient_step_interns(self):
        model = LinearChainCRF()
        model.gradient_step(self.TOKENS, [0, 1, 2], 0.1)
        assert len(model.feature_map) == 30 and model.emission.shape == (30, N_TAGS)

    def test_frozen_model_behaves_as_it_did(self):
        model = default_model()
        assert model.feature_map.frozen
        tokens = ["Unseen", "words", "zzz", "44th"]
        before = len(model.feature_map)
        assert model.decode(tokens) == oracle_decode(model, tokens)
        expected = oracle_emission_scores(model.emission, known_ids(tokens, model.feature_map))
        assert model.sentence_potentials(tokens).tobytes() == expected.tobytes()
        assert len(model.feature_map) == before
        # A frozen map still rejects new names through the interning walk.
        assert crf_features.extract_ids(tokens, model.feature_map) == known_ids(
            tokens, model.feature_map
        )


class TestSentenceMemo:
    """Each distinct sentence is tagged once per question and charged every time."""

    FACT = "Barack Obama was elected 44th president of the United States in 2008."
    QUESTION = "Who was elected 44th president of the United States?"

    def documents(self):
        fillers = ["Scholars have written extensively about its influence.", "It rained."]
        bodies = [fillers[:at] + [self.FACT] + fillers[at:] for at in range(3)]
        return [Document(at, f"copy {at}", " ".join(body)) for at, body in enumerate(bodies)]

    def run(self, questions):
        """The filter chain over the three documents, document ``i`` with ``questions[i]``."""
        pipeline = FilterPipeline(extraction_filter=CandidateExtractionFilter(default_model()))
        stats = FilterStats()
        candidates, counters = work_of(
            lambda: [
                pipeline.run(question, document, stats)
                for question, document in zip(questions, self.documents())
            ]
        )
        return candidates, stats, counters

    #: One question per answer type: DATE, NUMBER and GENERIC candidates are
    #: read off with per-token regex tests, which charge their own counters.
    QUESTIONS = [
        QUESTION,
        "When was Barack Obama elected president?",
        "How many presidents were elected before Barack Obama?",
        "What was Barack Obama elected?",
    ]

    @pytest.mark.parametrize("text", QUESTIONS)
    def test_three_presentations_equal_three_decodes(self, text):
        tagger = default_model()
        shared = analyze(text, tagger)
        memo_candidates, memo_stats, memo_counters = self.run([shared] * 3)
        # One question per document: nothing is remembered, every sentence is decoded.
        fresh = [analyze(text, tagger) for _ in range(3)]
        candidates, stats, counters = self.run(fresh)
        assert memo_candidates == candidates
        assert memo_candidates[0] == memo_candidates[1] == memo_candidates[2] != []
        assert memo_candidates[0] == extract_candidates(self.FACT, shared.answer_type, tagger)
        assert memo_stats == stats and stats.candidate_hits == 3 * len(candidates[0])
        assert memo_counters == counters and counters["invocations"] > 0
        assert list(shared.tagged) == [self.FACT]
        assert all(list(question.tagged) == [self.FACT] for question in fresh)

    def test_the_four_questions_cover_the_four_answer_types(self):
        types = [analyze(text, default_model()).answer_type for text in self.QUESTIONS]
        assert types == ["PERSON", "DATE", "NUMBER", "GENERIC"]

    @pytest.mark.parametrize("text", QUESTIONS)
    def test_a_hit_charges_the_decode_it_saved(self, text):
        tagger = default_model()
        extraction = CandidateExtractionFilter(tagger)
        question = analyze(text, tagger)
        filtered = [FilteredSentence(self.FACT, 3)]
        miss = work_of(lambda: extraction.apply(question, filtered, FilterStats()))
        hit = work_of(lambda: extraction.apply(question, filtered, FilterStats()))
        assert hit == miss
        direct = work_of(lambda: extract_candidates(self.FACT, question.answer_type, tagger))
        assert hit == direct
        if question.answer_type == "PERSON":  # no regex tests: the decode is all of it
            decode = work_of(lambda: tagger.decode(tokenize_keep_case(self.FACT)))
            assert hit[1] == decode[1] and decode[1]["invocations"] == 1

    def test_a_sentence_without_tokens_charges_nothing_either_way(self):
        extraction = CandidateExtractionFilter(default_model())
        question = analyze(self.QUESTION, default_model())
        filtered = [FilteredSentence("?!", 1)]
        for _ in range(2):
            found, counters = work_of(lambda: extraction.apply(question, filtered, FilterStats()))
            assert found == [] and counters["invocations"] == 0

    def test_two_questions_never_share_an_entry(self):
        tagger = default_model()
        extraction = CandidateExtractionFilter(tagger)
        who = analyze(self.QUESTION, tagger)
        when = analyze("When was Barack Obama elected?", tagger)
        assert who.tagged is not when.tagged
        filtered = [FilteredSentence(self.FACT, 3)]
        people = extraction.apply(who, filtered, FilterStats())
        assert when.tagged == {}
        years = extraction.apply(when, filtered, FilterStats())
        assert people == extract_candidates(self.FACT, who.answer_type, tagger)
        assert years == extract_candidates(self.FACT, when.answer_type, tagger)
        assert [c.text for c in years] == ["2008"] and people != years
        # The memo is not part of the question's value.
        assert who == analyze(self.QUESTION, tagger) and "tagged" not in repr(who)

# -- the parent-commit golden ------------------------------------------------------------


def golden_sentences():
    """Every distinct corpus sentence, then every input-set sentence."""
    seen = {}
    for document in Corpus():
        for sentence in sentences(document.text):
            seen.setdefault(sentence, None)
    for sentence in all_sentences():
        seen.setdefault(sentence, None)
    return list(seen)


def compute_golden():
    model = default_model()
    return {
        "n_features": len(model.feature_map),
        "first_features": list(model.feature_map._ids)[:N_FEATURE_NAMES],
        "tags": {
            sentence: " ".join(model.decode(tokenize_keep_case(sentence)))
            for sentence in golden_sentences()
        },
    }


class TestParentGolden:
    @pytest.fixture(scope="class")
    def golden_pair(self):
        return json.loads(GOLDEN.read_text(encoding="utf-8")), compute_golden()

    def test_feature_map_interned_in_the_parents_order(self, golden_pair):
        expected, actual = golden_pair
        assert actual["n_features"] == expected["n_features"]
        assert actual["first_features"] == expected["first_features"]

    def test_tags_of_every_corpus_and_input_set_sentence(self, golden_pair):
        expected, actual = golden_pair
        assert list(actual["tags"]) == list(expected["tags"])
        for sentence, tags in expected["tags"].items():
            assert actual["tags"][sentence] == tags, sentence

    def test_golden_covers_what_it_says(self, golden_pair):
        expected, _ = golden_pair
        assert len(expected["first_features"]) == N_FEATURE_NAMES
        assert expected["first_features"][0].startswith("w=")
        assert set(all_sentences()) <= set(expected["tags"])
        assert len(expected["tags"]) > len(all_sentences()) + 30
        used = {tag for tags in expected["tags"].values() for tag in tags.split(" ")}
        assert {"NOUN", "PROPN", "VERB", "NUM", "DET", "ADP", "WH"} <= used <= set(TAGS)


if __name__ == "__main__":
    # One line per sentence keeps the fixture diffable.
    golden = compute_golden()
    lines = [
        f"  {json.dumps(sentence)}: {json.dumps(tags)}"
        for sentence, tags in golden["tags"].items()
    ]
    GOLDEN.write_text(
        "{\n"
        f' "n_features": {golden["n_features"]},\n'
        f' "first_features": {json.dumps(golden["first_features"])},\n'
        ' "tags": {\n' + ",\n".join(lines) + "\n }\n}\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
