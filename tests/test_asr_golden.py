"""Bit-identity of ASR scoring and search against the code they replaced.

``tests/fixtures/asr_golden.json`` was written by ``compute_golden()`` running
on the commit before the sparse-entry Viterbi step and the stacked GMM bank
(per-state ``DiagonalGMM.log_likelihood`` calls, a dense ``(V, V)`` cross-word
candidate and a Python loop over word starts) and is never regenerated from
the code under test.  Scores are pinned as ``float.hex()`` and emission
matrices as a sha256 over their float64 bytes, so a one-ulp drift in scoring
or a changed tie-break in the search fails here.  The per-state scoring loop
itself is kept below as ``per_state_emission_scores`` — the reference the
block-size tests compare against.

Regenerate (only from a commit whose output is the intended reference):
``PYTHONPATH=src python tests/test_asr_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.asr import (
    BigramLanguageModel,
    Decoder,
    Synthesizer,
    collect_training_data,
    train_gmm_acoustic_model,
)
from repro.asr.acoustic import N_EMISSION_STATES, GMMAcousticModel
from repro.asr.gmm import DiagonalGMM
from repro.core.inputset import all_sentences
from repro.errors import ModelError
from repro.obs.context import use_tracer
from repro.obs.trace import Tracer

GOLDEN = Path(__file__).parent / "fixtures" / "asr_golden.json"
#: Synthesizer seeds; each speaker says the whole input set in order.
SPEAKERS = (3, 17)
BEAMS = (None, 200.0)
N_BEST = 5


def build_decoders():
    """One decoder per beam, over the model ``SiriusPipeline.build`` trains."""
    sentences = all_sentences()
    model = train_gmm_acoustic_model(collect_training_data(sentences, repetitions=3))
    language_model = BigramLanguageModel(sentences)
    return {beam: Decoder(model, language_model, beam=beam) for beam in BEAMS}


def utterances(decoder):
    """``(key, waveform, features)`` for every input-set sentence × speaker."""
    for speaker in SPEAKERS:
        synthesizer = Synthesizer(seed=speaker)
        for text in all_sentences():
            waveform = synthesizer.synthesize(text)
            yield f"{speaker}:{text}", waveform, decoder.feature_extractor.extract(waveform)


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
                for result in decoder.decode_nbest(waveform, n=N_BEST)
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
        base = model.fallback.log_likelihood(features) - model.fallback_penalty
        scores = np.tile(base[:, None], (1, N_EMISSION_STATES))
    else:
        scores = np.full((len(features), N_EMISSION_STATES), -1e30)
    for state, gmm in model.gmms.items():
        scores[:, state] = gmm.log_likelihood(features)
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

    @pytest.mark.parametrize("with_fallback", [True, False])
    def test_mixed_component_counts(self, with_fallback):
        rng = np.random.default_rng(16)
        # K in state order 3, 1, 2, 5, 1, ...: every group is interleaved.
        gmms = {
            state: random_gmm(rng, n_components)
            for state, n_components in zip(range(2, 60, 3), [3, 1, 2, 5, 1] * 4)
        }
        fallback = random_gmm(rng, 2) if with_fallback else None
        model = GMMAcousticModel(gmms, fallback=fallback, fallback_penalty=3.5)
        features = rng.normal(size=(75, 6))  # two full row blocks and a part
        scores = model.emission_scores(features)
        assert np.array_equal(scores, per_state_emission_scores(model, features))
        untrained = [s for s in range(N_EMISSION_STATES) if s not in gmms]
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
