"""Linear-chain CRF part-of-speech tagger (CRFsuite replacement)."""

from repro.qa.crf.features import FeatureMap
from repro.qa.crf.model import LinearChainCRF
from repro.qa.crf.tagset import N_TAGS, TAGS, TAG_TO_ID
from repro.qa.crf.train import (
    TaggedSentence,
    TrainResult,
    default_model,
    generate_corpus,
    train_crf,
)

__all__ = [
    "FeatureMap",
    "LinearChainCRF",
    "N_TAGS",
    "TAGS",
    "TAG_TO_ID",
    "TaggedSentence",
    "TrainResult",
    "default_model",
    "generate_corpus",
    "train_crf",
]
