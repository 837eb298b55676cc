"""Sirius core: the end-to-end IPA pipeline, query taxonomy, and input set."""

from repro.core.classifier import ACTION, QUESTION, Classification, QueryClassifier
from repro.core.inputset import (
    InputSet,
    VOICE_COMMANDS,
    VOICE_IMAGE_QUERIES,
    VOICE_QUERIES,
    all_sentences,
    vocabulary,
)
from repro.core.pipeline import DNN_BACKEND, GMM_BACKEND, SiriusPipeline
from repro.core.query import IPAQuery, QueryType, SiriusResponse

__all__ = [
    "ACTION",
    "Classification",
    "DNN_BACKEND",
    "GMM_BACKEND",
    "IPAQuery",
    "InputSet",
    "QUESTION",
    "QueryClassifier",
    "QueryType",
    "SiriusPipeline",
    "SiriusResponse",
    "VOICE_COMMANDS",
    "VOICE_IMAGE_QUERIES",
    "VOICE_QUERIES",
    "all_sentences",
    "vocabulary",
]
