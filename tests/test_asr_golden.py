"""Bit-identity of ASR scoring and search against the code they replaced.

``tests/fixtures/asr_golden.json`` was written by ``compute_golden()`` running
on the commit before the sparse-entry Viterbi step and the stacked GMM bank
(per-state ``log_likelihood`` calls, a dense ``(V, V)`` cross-word
candidate and a Python loop over word starts) and is never regenerated from
the code under test.  Scores are pinned as ``float.hex()`` and emission
matrices as a sha256 over their float64 bytes, so a one-ulp drift in scoring
or a changed tie-break in the search fails here.  The per-state scoring loop
itself is kept below as ``per_state_emission_scores`` — the reference the
row-partition tests compare against.

Re-versioned at PR 23: expanded-quadratic scoring, scores moved ≤ 1e-10
(``DiagonalGMM.component_log_likelihood`` contracts ``[x² | x]`` with
``[-½p | pμ]`` instead of summing ``p·(x-μ)²``: same value, other roundings).
Before the fixture was rewritten the change was held against the previous
one: every transcript, n-best order and ``n_frames`` equal, all 478 scores
within 5.6e-11 of their old values (``CHANGES.md``, PR 23).  The replaced body
is kept below as ``oracle_component_log_likelihood`` and bounds the new one on
every golden utterance.  Utterances are keyed by position since then, so the
three sentences the input set repeats are pinned on both takes (84 entries;
``speaker:text`` keys held 78).

Re-versioned at PR 31: one BLAS product per frame row, scores moved ≤ 1e-10
(``component_log_likelihood`` contracts the same moments and weights as
``(T, 1, 2D) @ (2D, K)`` instead of ``np.einsum``: same terms, other summation
order).  Held against the previous fixture first: every transcript, n-best
order and ``n_frames`` equal, all 514 scores within 9.8e-11 of their old values
under one BLAS thread and under default threads (``CHANGES.md``).  The
replaced body is kept below as ``oracle_einsum_component_log_likelihood`` and
bounds the new one on every golden utterance and on random banks.

Regenerate (only from a commit whose output is the intended reference):
``PYTHONPATH=src python tests/test_asr_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asr import BigramLanguageModel, Decoder, Synthesizer
from repro.asr.acoustic import FALLBACK_PENALTY, N_EMISSION_STATES, GMMAcousticModel
from repro.asr.gmm import DiagonalGMM
from repro.core.inputset import all_sentences
from repro.errors import ModelError
from repro.obs.context import use_tracer
from repro.obs.trace import Tracer
from repro.trained import load_gmm_acoustic_model
from tests.test_asr_models import log_likelihood

GOLDEN = Path(__file__).parent / "fixtures" / "asr_golden.json"
#: Synthesizer seeds; each speaker says the whole input set in order.
SPEAKERS = (3, 17)
BEAMS = (None, 200.0)


def build_decoders():
    """One decoder per beam, over the model ``SiriusPipeline.build`` loads.

    The shipped model is byte-equal to training it on the input set
    (``tests/test_trained_models.py``), so the golden needs no training of
    its own.
    """
    model = load_gmm_acoustic_model()
    language_model = BigramLanguageModel(all_sentences())
    return {beam: Decoder(model, language_model, beam=beam) for beam in BEAMS}


def utterances(decoder):
    """``(key, waveform, features)`` for every input-set sentence × speaker.

    Keyed by position: three sentences occur twice in the input set, and the
    two takes of one are different waveforms.
    """
    for speaker in SPEAKERS:
        synthesizer = Synthesizer(seed=speaker)
        for index, text in enumerate(all_sentences()):
            waveform = synthesizer.synthesize(text)
            yield (
                f"{speaker}:{index:02d}:{text}",
                waveform,
                decoder.feature_extractor.extract(waveform),
            )


def compute_golden():
    decoders = build_decoders()
    model = decoders[None].acoustic_model
    golden = {}
    for key, waveform, features in utterances(decoders[None]):
        emissions = np.ascontiguousarray(model.emission_scores(features))
        entry = {
            "n_frames": len(features),
            "emissions": hashlib.sha256(emissions.tobytes()).hexdigest(),
        }
        for beam, decoder in decoders.items():
            entry[f"beam={beam}"] = [
                [result.text, float(result.log_score).hex(), result.n_frames]
                for result in decoder.decode_nbest(waveform)
            ]
        golden[key] = entry
    return golden


def test_matches_parent_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = compute_golden()
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key


# -- the per-state loop, kept as the reference --------------------------------------


def per_state_emission_scores(model, features):
    """``GMMAcousticModel.emission_scores`` as it was: one GMM call per state."""
    if model.fallback is not None:
        base = log_likelihood(model.fallback, features) - FALLBACK_PENALTY
        scores = np.tile(base[:, None], (1, N_EMISSION_STATES))
    else:
        scores = np.full((len(features), N_EMISSION_STATES), -1e30)
    for state, gmm in model.gmms.items():
        scores[:, state] = log_likelihood(gmm, features)
    return scores


@pytest.fixture(scope="module")
def decoder():
    return build_decoders()[200.0]


def random_gmm(rng, n_components, dimension=6):
    weights = rng.dirichlet(np.ones(n_components))
    return DiagonalGMM(
        rng.normal(size=(n_components, dimension)),
        rng.uniform(0.5, 2.0, size=(n_components, dimension)),
        np.log(weights),
    )


def counters_of_scoring(score, model, features):
    tracer = Tracer(seed=1)
    with use_tracer(tracer), tracer.trace(0), tracer.span("scoring"):
        score(model, features)
    return next(s.attributes for s in tracer.spans if s.name == "scoring")


def mixed_k_model(rng, with_fallback):
    """K in state order 3, 1, 9, 5, 12, ...: every group is interleaved.  Nine
    and twelve because numpy sums a trailing axis of eight or more pairwise, so
    only a log-sum-exp shared with the per-state calls keeps those bit-equal."""
    gmms = {
        state: random_gmm(rng, n_components)
        for state, n_components in zip(range(2, 60, 3), [3, 1, 9, 5, 12] * 4)
    }
    fallback = random_gmm(rng, 2) if with_fallback else None
    return GMMAcousticModel(gmms, fallback=fallback)


# -- the broadcasting body, kept as the reference ------------------------------------


def oracle_component_log_likelihood(gmm, features):
    """``DiagonalGMM.component_log_likelihood`` as it was: ``p·(x-μ)²`` summed
    over a ``(T, K, D)`` tensor."""
    diff = features[:, None, :] - gmm.means[None, :, :]
    mahalanobis = np.einsum("tkd,kd->tk", diff * diff, gmm.precisions)
    return gmm.factors[None, :] - 0.5 * mahalanobis


def rounding_bound(gmm, features):
    """``(T, K)`` bound on ``|new - oracle|``: ``2·(2D + 4)·eps·(Σ_d p·(x² + μ²)
    + |factor|)``.  Both bodies sum at most 2D + 1 rounded terms whose
    magnitudes add up to no more than that scale (``|p·μ·x| ≤ ½p·(x² + μ²)``),
    so each is within ``(2D + 4)·eps`` of it from the exact value."""
    scale = np.einsum(
        "tkd,kd->tk",
        features[:, None, :] ** 2 + gmm.means[None, :, :] ** 2,
        gmm.precisions,
    ) + np.abs(gmm.factors)
    return 2 * (2 * gmm.dimension + 4) * np.finfo(np.float64).eps * scale


def oracle_einsum_component_log_likelihood(gmm, features):
    """``DiagonalGMM.component_log_likelihood`` as it was: the same moments and
    weights contracted by ``np.einsum`` instead of one BLAS product per row."""
    features = np.atleast_2d(features)
    moments = np.empty((len(features), 2 * gmm.dimension))
    np.multiply(features, features, out=moments[:, : gmm.dimension])
    moments[:, gmm.dimension :] = features
    scores = np.einsum("td,kd->tk", moments, gmm._weights)
    scores += gmm._offsets
    return scores


def summation_bound(gmm, features):
    """``(T, K)`` bound on ``|new - einsum oracle|``: both sum the same 2D
    rounded products and the offset, in other orders, so each is within
    ``(2D + 2)·eps`` of the exact sum of ``|terms|`` from it."""
    moments = np.hstack([features**2, np.abs(features)])
    scale = moments @ np.abs(gmm._weights).T + np.abs(gmm._offsets)
    return 2 * (2 * gmm.dimension + 2) * np.finfo(np.float64).eps * scale


class TestRowProductEqualsEinsum:
    def test_every_golden_utterance_within_1e_9(self, decoder):
        bank = decoder.acoustic_model._bank
        worst = 0.0
        for _, _, features in utterances(decoder):
            moved = np.abs(
                bank.component_log_likelihood(features)
                - oracle_einsum_component_log_likelihood(bank, features)
            )
            assert np.all(moved <= summation_bound(bank, features))
            worst = max(worst, float(moved.max()))
        assert worst <= 1e-9

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_components=st.integers(1, 40),
        dimension=st.integers(1, 26),
        n_frames=st.integers(0, 40),
        mean_scale=st.sampled_from([0.0, 1.0, 50.0]),
    )
    def test_random_banks_within_the_summation_bound(
        self, seed, n_components, dimension, n_frames, mean_scale
    ):
        rng = np.random.default_rng(seed)
        gmm = DiagonalGMM(
            rng.uniform(-mean_scale, mean_scale, size=(n_components, dimension)),
            rng.uniform(1e-2, 1e3, size=(n_components, dimension)),
            np.log(rng.dirichlet(np.ones(n_components))),
        )
        features = rng.uniform(-60.0, 60.0, size=(n_frames, dimension))
        new = gmm.component_log_likelihood(features)
        assert new.shape == (n_frames, n_components)
        moved = np.abs(new - oracle_einsum_component_log_likelihood(gmm, features))
        assert np.all(moved <= summation_bound(gmm, features))


class TestExpandedQuadraticEqualsBroadcasting:
    def test_every_golden_utterance_within_1e_9(self, decoder):
        bank = decoder.acoustic_model._bank
        worst = 0.0
        for _, _, features in utterances(decoder):
            moved = np.abs(
                bank.component_log_likelihood(features)
                - oracle_component_log_likelihood(bank, features)
            )
            assert np.all(moved <= rounding_bound(bank, features))
            worst = max(worst, float(moved.max()))
        assert worst <= 1e-9

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_components=st.integers(1, 9),
        dimension=st.integers(1, 26),
        mean_scale=st.sampled_from([0.0, 1.0, 50.0]),
        max_precision=st.sampled_from([1.0, 1e3]),
    )
    def test_random_gmms_within_the_rounding_bound(
        self, seed, n_components, dimension, mean_scale, max_precision
    ):
        # The hard corner for the expansion is cancellation between x², μx
        # and μ²: |μ| up to 50 at precisions up to 1 / min_variance = 1e3.
        rng = np.random.default_rng(seed)
        gmm = DiagonalGMM(
            rng.uniform(-mean_scale, mean_scale, size=(n_components, dimension)),
            rng.uniform(1e-2, max_precision, size=(n_components, dimension)),
            np.log(rng.dirichlet(np.ones(n_components))),
        )
        # Frames near the means (where the terms cancel) and far from them.
        near = gmm.means[rng.integers(n_components, size=6)] + rng.normal(size=(6, dimension))
        features = np.vstack([near, rng.uniform(-60.0, 60.0, size=(6, dimension))])
        moved = np.abs(
            gmm.component_log_likelihood(features)
            - oracle_component_log_likelihood(gmm, features)
        )
        assert np.all(moved <= rounding_bound(gmm, features))


class TestBankEqualsPerStateLoop:
    def test_one_row_ten_row_and_whole_blocks(self, decoder):
        model = decoder.acoustic_model
        for _, _, features in list(utterances(decoder))[:6]:
            expected = per_state_emission_scores(model, features)
            assert np.array_equal(model.emission_scores(features), expected)
            for size in (1, 10):
                blocks = [
                    model.emission_scores(features[start : start + size])
                    for start in range(0, len(features), size)
                ]
                assert np.array_equal(np.vstack(blocks), expected)

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_any_partition_of_the_rows_scores_as_the_whole(self, decoder, data):
        """Streaming scores the frames it has; the utterance's scores must not
        depend on where the chunks fell."""
        trained = data.draw(st.booleans(), label="trained model")
        if trained:
            model = decoder.acoustic_model
            _, _, features = next(utterances(decoder))
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 1000), label="seed"))
            model = mixed_k_model(rng, with_fallback=True)
            features = rng.normal(size=(75, 6)) * 4
        n = len(features)
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=12), label="cuts"))
        bounds = [0, *cuts, n]
        parts = [
            model.emission_scores(features[start:stop])
            for start, stop in zip(bounds, bounds[1:])
        ]
        assert np.vstack(parts).tobytes() == model.emission_scores(features).tobytes()

    @pytest.mark.parametrize("with_fallback", [True, False])
    def test_mixed_component_counts(self, with_fallback):
        model = mixed_k_model(np.random.default_rng(16), with_fallback)
        features = np.random.default_rng(17).normal(size=(75, 6))
        scores = model.emission_scores(features)
        assert np.array_equal(scores, per_state_emission_scores(model, features))
        untrained = [s for s in range(N_EMISSION_STATES) if s not in model.gmms]
        if not with_fallback:
            assert np.all(scores[:, untrained] == -1e30)

    def test_no_frames_score_to_no_rows(self, decoder):
        model = decoder.acoustic_model
        assert model.emission_scores(np.zeros((0, 26))).shape == (0, N_EMISSION_STATES)

    def test_feature_dimension_mismatch(self, decoder):
        with pytest.raises(ModelError):
            decoder.acoustic_model.emission_scores(np.zeros((4, 25)))
        with pytest.raises(ModelError):
            GMMAcousticModel({0: random_gmm(np.random.default_rng(0), 2, dimension=5)},
                             fallback=random_gmm(np.random.default_rng(1), 2, dimension=6))

    def test_work_counters_sum_to_the_per_state_calls(self, decoder):
        model = decoder.acoustic_model
        _, _, features = next(utterances(decoder))
        bank = counters_of_scoring(GMMAcousticModel.emission_scores, model, features)
        loop = counters_of_scoring(per_state_emission_scores, model, features)
        for key in ("flops", "bytes", "items"):
            assert bank[key] == loop[key], key
        # One record per run of equal K against one per GMM.
        assert loop["invocations"] == len(model.gmms) + 1
        n_groups = len({g.n_components for g in [*model.gmms.values(), model.fallback]})
        assert bank["invocations"] == n_groups


if __name__ == "__main__":
    # One line per utterance keeps the fixture diffable.
    lines = [
        f" {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(compute_golden().items())
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")
