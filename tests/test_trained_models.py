"""The shipped models (``src/repro/trained.npz``) are what in-repo training gives.

Set-up loads the default GMM acoustic model and CRF tagger from the artifact
instead of training them.  These tests retrain both with the trainers the
artifact came from and hold every array of the file to the result byte for
byte, feature-name order included: the file is a cache of in-repo training,
not a second model.  The retraining runs on the machine the tests run on, so
no float is pinned across machines.  They also pin which set-ups load and
which still train.

Regenerate the artifact after a change to a trainer or to its inputs:
``PYTHONPATH=src python tests/test_trained_models.py``.
"""

import numpy as np
import pytest

from repro import trained
from repro.asr import FeatureExtractor, Synthesizer
from repro.core import SiriusPipeline, all_sentences
from repro.core import pipeline as pipeline_module
from repro.qa.crf import default_model
from repro.qa.crf import train as crf_train

REGENERATE = "PYTHONPATH=src python tests/test_trained_models.py"


def shipped_arrays():
    with np.load(trained.ARTIFACT, allow_pickle=False) as artifact:
        return {key: artifact[key] for key in artifact.files}


def array_mismatches(expected, actual):
    """Keys whose dtype, shape or bytes differ (or that only one side has)."""
    return sorted(
        key
        for key in set(expected) | set(actual)
        if key not in expected
        or key not in actual
        or expected[key].dtype != actual[key].dtype
        or expected[key].shape != actual[key].shape
        or expected[key].tobytes() != actual[key].tobytes()
    )


@pytest.fixture(scope="module")
def retrained():
    return trained.train_default_models()


class TestArtifactEqualsTraining:
    def test_every_array_is_byte_equal_to_retraining(self, retrained):
        mismatched = array_mismatches(trained.model_arrays(*retrained), shipped_arrays())
        assert not mismatched, (
            f"{trained.ARTIFACT.name} differs from in-repo training in {mismatched}; "
            f"regenerate it with `{REGENERATE}`"
        )

    def test_feature_names_in_id_order(self, retrained):
        _, tagger = retrained
        names = shipped_arrays()["crf_features"].tolist()
        assert names == list(tagger.feature_map._ids)
        assert [tagger.feature_map.intern(name) for name in names] == list(range(len(names)))

    def test_a_flipped_float_is_caught(self, retrained, tmp_path):
        arrays = trained.model_arrays(*retrained)
        arrays["gmm_means"] = arrays["gmm_means"].copy()
        arrays["gmm_means"].view(np.uint64)[3, 5] ^= 1  # the last mantissa bit
        path = tmp_path / "flipped.npz"
        np.savez_compressed(path, **arrays)
        with np.load(path, allow_pickle=False) as flipped:
            mismatched = array_mismatches(
                trained.model_arrays(*retrained), {key: flipped[key] for key in flipped.files}
            )
        assert mismatched == ["gmm_means"]


class TestLoadersRebuildTheModels:
    def test_round_trip_is_byte_equal(self):
        loaded = trained.model_arrays(trained.load_gmm_acoustic_model(), trained.load_crf_tagger())
        assert not array_mismatches(shipped_arrays(), loaded)

    def test_loaded_acoustic_model_scores_as_trained(self, retrained):
        acoustic, _ = retrained
        waveform = Synthesizer(seed=3).synthesize("what is the capital of italy")
        features = FeatureExtractor().extract(waveform)
        loaded = trained.load_gmm_acoustic_model().emission_scores(features)
        assert loaded.tobytes() == acoustic.emission_scores(features).tobytes()

    def test_loaded_tagger_tags_as_trained(self, retrained):
        _, tagger = retrained
        loaded = trained.load_crf_tagger()
        assert loaded.feature_map.frozen and len(loaded.feature_map) == len(tagger.feature_map)
        sentences = [sentence.split() for sentence in all_sentences()]
        assert loaded.decode_lattice(sentences) == tagger.decode_lattice(sentences)

    def test_each_load_is_a_fresh_copy(self):
        first, second = trained.load_gmm_acoustic_model(), trained.load_gmm_acoustic_model()
        assert first.gmms[0].means is not second.gmms[0].means
        assert trained.load_crf_tagger().transition is not trained.load_crf_tagger().transition


def refuse(*args, **kwargs):
    raise AssertionError("this set-up must not call it")


class TestWhichSetUpsLoad:
    def test_default_build_loads_instead_of_training(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "collect_training_data", refuse)
        monkeypatch.setattr(pipeline_module, "train_gmm_acoustic_model", refuse)
        pipeline = SiriusPipeline.build(n_scenes=1)
        arrays = trained.model_arrays(pipeline.decoder.acoustic_model, default_model())
        assert not array_mismatches(shipped_arrays(), arrays)

    def test_default_model_loads_once(self, monkeypatch):
        reads = []
        read = trained._read
        monkeypatch.setattr(crf_train, "_CACHED_MODEL", None)
        monkeypatch.setattr(crf_train, "train_crf", refuse)
        monkeypatch.setattr(trained, "_read", lambda *keys: reads.append(keys) or read(*keys))
        model = default_model()
        assert model is default_model() and len(reads) == 1
        assert model.emission.tobytes() == shipped_arrays()["crf_emission"].tobytes()

    def test_custom_sentences_train_without_the_artifact(self, monkeypatch):
        sentences = ["open the red door", "close the window", "lock the red window"]
        default_model()  # the QA engine's tagger is the shipped one either way
        monkeypatch.setattr(trained, "_read", refuse)
        pipeline = SiriusPipeline.build(training_sentences=sentences, n_scenes=1)
        assert pipeline.decoder.vocabulary == sorted({w for s in sentences for w in s.split()})
        synthesizer = Synthesizer(seed=77)
        for sentence in sentences:
            result = pipeline.decoder.decode_waveform(synthesizer.synthesize(sentence))
            assert result.text == sentence


if __name__ == "__main__":
    trained.write_artifact(*trained.train_default_models())
    print(f"wrote {trained.ARTIFACT}")
