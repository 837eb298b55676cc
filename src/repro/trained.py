"""The default trained models, shipped with the code as one artifact.

Sirius starts from trained models; so does this reproduction.  ``trained.npz``
holds the GMM acoustic model that :meth:`SiriusPipeline.build` would train on
the input-set sentences and the CRF tagger that :func:`~repro.qa.crf.default_model`
would train on the synthetic corpus.  Both are deterministic functions of the
code in this repository: :func:`train_default_models` makes them, and
``tests/test_trained_models.py`` retrains them and holds every array of the
file to the result byte for byte, so the file is a cache of in-repo training,
not a second model.  Regenerate it with
``PYTHONPATH=src python tests/test_trained_models.py``.

The file is written with ``np.savez_compressed`` and read with
``allow_pickle=False``; each model is rebuilt through its public
constructors:

- ``gmm_states`` / ``gmm_components``: the emission states that have their
  own GMM, in state order, and each one's component count;
  ``gmm_means``, ``gmm_precisions``, ``gmm_log_weights``: their components,
  stacked in that order; ``fallback_*``: the fallback GMM;
- ``crf_features``: the tagger's feature names in id order (interned, then
  frozen); ``crf_emission`` (one row per feature), ``crf_transition``,
  ``crf_start``, ``crf_end``: its weights.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.asr.acoustic import GMMAcousticModel
from repro.asr.gmm import DiagonalGMM
from repro.errors import ModelError
from repro.qa.crf.model import LinearChainCRF

#: The shipped artifact, next to this module.
ARTIFACT = Path(__file__).with_name("trained.npz")


def train_default_models() -> Tuple[GMMAcousticModel, LinearChainCRF]:
    """Train what the artifact holds, as set-up did before it shipped: the
    GMM acoustic model on the input-set sentences (three takes each) and the
    CRF tagger on the synthetic corpus."""
    # Imported here: only regeneration and its check train, and
    # ``repro.core`` imports this module.
    from repro.asr.acoustic import collect_training_data, train_gmm_acoustic_model
    from repro.core.inputset import all_sentences
    from repro.qa.crf.train import generate_corpus, train_crf

    acoustic = train_gmm_acoustic_model(collect_training_data(all_sentences()))
    return acoustic, train_crf(generate_corpus()).model


def model_arrays(acoustic: GMMAcousticModel, tagger: LinearChainCRF) -> Dict[str, np.ndarray]:
    """The artifact's arrays for these two models (the keys above)."""
    states = sorted(acoustic.gmms)
    gmms = [acoustic.gmms[state] for state in states]
    fallback = acoustic.fallback
    return {
        "gmm_states": np.array(states, dtype=np.int64),
        "gmm_components": np.array([gmm.n_components for gmm in gmms], dtype=np.int64),
        "gmm_means": np.concatenate([gmm.means for gmm in gmms]),
        "gmm_precisions": np.concatenate([gmm.precisions for gmm in gmms]),
        "gmm_log_weights": np.concatenate([gmm.log_weights for gmm in gmms]),
        "fallback_means": fallback.means,
        "fallback_precisions": fallback.precisions,
        "fallback_log_weights": fallback.log_weights,
        # ``_ids`` iterates in insertion order, which is id order.
        "crf_features": np.array(list(tagger.feature_map._ids), dtype=np.str_),
        "crf_emission": tagger.emission,
        "crf_transition": tagger.transition,
        "crf_start": tagger.start,
        "crf_end": tagger.end,
    }


def write_artifact(acoustic: GMMAcousticModel, tagger: LinearChainCRF) -> None:
    """Write the two models to :data:`ARTIFACT` (compressed, no pickled objects)."""
    np.savez_compressed(ARTIFACT, **model_arrays(acoustic, tagger))


def _read(*keys: str) -> Dict[str, np.ndarray]:
    with np.load(ARTIFACT, allow_pickle=False) as artifact:
        return {key: artifact[key] for key in keys}


def load_gmm_acoustic_model() -> GMMAcousticModel:
    """A fresh copy of the shipped GMM acoustic model."""
    arrays = _read(
        "gmm_states", "gmm_components", "gmm_means", "gmm_precisions",
        "gmm_log_weights", "fallback_means", "fallback_precisions",
        "fallback_log_weights",
    )
    # Each state's rows of the three stacked arrays.
    bounds = np.cumsum(arrays["gmm_components"])[:-1]
    members = [
        np.split(arrays[key], bounds) for key in ("gmm_means", "gmm_precisions", "gmm_log_weights")
    ]
    gmms = {
        state: DiagonalGMM(*parameters)
        for state, *parameters in zip(arrays["gmm_states"].tolist(), *members)
    }
    fallback = DiagonalGMM(
        arrays["fallback_means"], arrays["fallback_precisions"], arrays["fallback_log_weights"]
    )
    return GMMAcousticModel(gmms, fallback=fallback)


def load_crf_tagger() -> LinearChainCRF:
    """A fresh copy of the shipped CRF tagger, its feature map frozen."""
    arrays = _read("crf_features", "crf_emission", "crf_transition", "crf_start", "crf_end")
    tagger = LinearChainCRF()
    for name in arrays["crf_features"].tolist():
        tagger.feature_map.intern(name)
    tagger.feature_map.freeze()
    emission = tagger.emission
    if emission.shape != arrays["crf_emission"].shape:
        raise ModelError(
            f"shipped CRF emission {arrays['crf_emission'].shape} != {emission.shape} "
            "for its feature names"
        )
    emission[...] = arrays["crf_emission"]
    tagger.transition[...] = arrays["crf_transition"]
    tagger.start[...] = arrays["crf_start"]
    tagger.end[...] = arrays["crf_end"]
    return tagger
