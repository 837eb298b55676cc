"""CRF training loop and the synthetic CoNLL-style corpus.

The paper benchmarks CRFsuite on the CoNLL-2000 shared task; that corpus is
licensed data we do not ship, so :func:`generate_corpus` synthesizes tagged
sentences from templates with a per-tag vocabulary.  The resulting learning
problem has the same structure (sparse indicator features, linear-chain
transitions) and produces a model accurate enough for the QA pipeline to rely
on its part-of-speech predictions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.qa.crf.features import extract_ids
from repro.qa.crf.model import LinearChainCRF
from repro.qa.crf.tagset import TAG_TO_ID

#: Per-tag vocabulary used by the sentence templates.
VOCABULARY = {
    "NOUN": [
        "president", "capital", "author", "river", "alarm", "restaurant",
        "museum", "city", "country", "book", "election", "mountain",
        "station", "island", "treaty", "engine", "harbor", "festival",
    ],
    "PROPN": [
        "Italy", "Cuba", "Obama", "Vegas", "Potter", "Michigan", "Turing",
        "Norway", "Lincoln", "Amazon", "Everest", "Paris",
    ],
    "VERB": [
        "is", "was", "elected", "wrote", "set", "close", "closes", "opened",
        "won", "discovered", "founded", "named", "borders", "visited",
    ],
    "ADJ": [
        "current", "tall", "famous", "ancient", "longest", "largest",
        "first", "best", "open", "late",
    ],
    "ADV": ["quickly", "nearly", "exactly", "currently", "soon", "very"],
    "NUM": ["44th", "8am", "1969", "two", "100", "3rd", "20", "1912"],
    "DET": ["the", "a", "an", "this", "that", "my"],
    "ADP": ["of", "in", "on", "for", "near", "at", "by", "from"],
    "PRON": ["it", "he", "she", "they", "we", "you"],
    "WH": ["what", "who", "where", "when", "which", "how", "why"],
    "PUNCT": ["?", ".", ",", "!"],
    "OTHER": ["please", "ok", "hey", "um"],
}

#: Sentence templates as tag sequences; words are drawn from VOCABULARY.
TEMPLATES: List[List[str]] = [
    ["WH", "VERB", "DET", "NOUN", "ADP", "PROPN", "PUNCT"],
    ["WH", "VERB", "VERB", "NUM", "NOUN", "PUNCT"],
    ["VERB", "DET", "NOUN", "ADP", "NUM", "PUNCT"],
    ["DET", "ADJ", "NOUN", "VERB", "ADP", "DET", "NOUN", "PUNCT"],
    ["PROPN", "VERB", "DET", "ADJ", "NOUN", "PUNCT"],
    ["WH", "ADV", "VERB", "DET", "NOUN", "VERB", "PUNCT"],
    ["PRON", "VERB", "DET", "NOUN", "ADP", "PROPN", "PUNCT"],
    ["VERB", "DET", "NOUN", "PUNCT"],
    ["WH", "VERB", "DET", "ADJ", "NOUN", "ADP", "DET", "NOUN", "PUNCT"],
    ["OTHER", "VERB", "PRON", "DET", "NOUN", "PUNCT"],
]


@dataclass(frozen=True)
class TaggedSentence:
    """A sentence with gold part-of-speech tags (parallel lists)."""

    tokens: Tuple[str, ...]
    tags: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.tags):
            raise ValueError("tokens and tags must align")

    def tag_ids(self) -> List[int]:
        return [TAG_TO_ID[tag] for tag in self.tags]


def generate_corpus(n_sentences: int = 500, seed: int = 7) -> List[TaggedSentence]:
    """Deterministic synthetic tagged corpus (CoNLL-2000 substitute)."""
    rng = random.Random(seed)
    corpus: List[TaggedSentence] = []
    for _ in range(n_sentences):
        template = rng.choice(TEMPLATES)
        tokens = tuple(rng.choice(VOCABULARY[tag]) for tag in template)
        corpus.append(TaggedSentence(tokens, tuple(template)))
    return corpus


@dataclass
class TrainResult:
    """Summary of a training run."""

    model: LinearChainCRF
    epochs: int
    final_log_likelihood: float
    accuracy: float


def train_crf(
    corpus: Sequence[TaggedSentence],
    epochs: int = 5,
    learning_rate: float = 0.1,
    l2: float = 1e-4,
    seed: int = 13,
) -> TrainResult:
    """Train a CRF by per-sentence stochastic gradient ascent.

    The learning rate decays 1/(1 + epoch/2); the feature map is frozen after
    training.  A sentence's features are interned on its first visit and the
    id lists reused by every later epoch.
    """
    model = LinearChainCRF()
    rng = random.Random(seed)
    order = list(range(len(corpus)))
    examples: Dict[int, Tuple[List[List[int]], List[int]]] = {}
    total = 0.0
    for epoch in range(epochs):
        rng.shuffle(order)
        rate = learning_rate / (1.0 + epoch / 2.0)
        total = 0.0
        for index in order:
            if index not in examples:
                sentence = corpus[index]
                ids = extract_ids(sentence.tokens, model.feature_map)
                examples[index] = ids, sentence.tag_ids()
            total += model.update(*examples[index], rate, l2)
    model.feature_map.freeze()
    accuracy = evaluate(model, corpus)
    return TrainResult(model, epochs, total / max(len(corpus), 1), accuracy)


def evaluate(model: LinearChainCRF, corpus: Sequence[TaggedSentence]) -> float:
    """Token-level tagging accuracy of ``model`` on ``corpus``."""
    correct = 0
    total = 0
    for sentence in corpus:
        predicted = model.decode(sentence.tokens)
        correct += sum(1 for p, g in zip(predicted, sentence.tags) if p == g)
        total += len(sentence.tokens)
    return correct / total if total else 0.0


_CACHED_MODEL: LinearChainCRF | None = None


def default_model() -> LinearChainCRF:
    """A process-wide trained tagger, built lazily on first use.

    The QA pipeline and the Sirius Suite CRF kernel share this instance so the
    (one-time) training cost is not charged to every query.
    """
    global _CACHED_MODEL
    if _CACHED_MODEL is None:
        _CACHED_MODEL = train_crf(generate_corpus()).model
    return _CACHED_MODEL
