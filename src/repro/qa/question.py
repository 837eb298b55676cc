"""Question analysis: interrogative detection, answer typing, query building.

Mirrors OpenEphyra's input stage (Figure 6): regular-expression patterns
recognize the question form, the Porter stemmer normalizes content words, and
the CRF part-of-speech tags feed answer-type classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.qa.crf import LinearChainCRF, default_model
from repro.qa.stemmer import StemMemo
from repro.qa.tokenizer import remove_stopwords, tokenize, tokenize_keep_case
from repro.regex import Pattern

#: Answer types the extraction stage knows how to find.
PERSON = "PERSON"
LOCATION = "LOCATION"
NUMBER = "NUMBER"
DATE = "DATE"
GENERIC = "GENERIC"

#: (pattern, answer_type) rules, checked in order; first match wins.
_TYPE_RULES: List[Tuple[Pattern, str]] = [
    (Pattern(r"^who\b"), PERSON),
    (Pattern(r"^where\b"), LOCATION),
    (Pattern(r"^when\b"), DATE),
    (Pattern(r"\bwhat year\b"), DATE),
    (Pattern(r"\bhow (many|much|long|far|tall|high)\b"), NUMBER),
    (Pattern(r"^(what|which) (city|country|state|place|river|ocean|continent)\b"), LOCATION),
    (Pattern(r"\b(author|inventor|founder|president|painter|discoverer)\b"), PERSON),
    (Pattern(r"\bcapital\b"), LOCATION),
]

_QUESTION_WORD = Pattern(r"^(what|where|who|when|why|how|which|is|are|was|were|do|does|did)\b")

_SPECIAL_CHARS = Pattern(r"[^a-zA-Z0-9 .,?!'-]")


@dataclass(frozen=True)
class AnalyzedQuestion:
    """Everything later QA stages need to know about a question."""

    text: str
    tokens: Tuple[str, ...]
    content_terms: Tuple[str, ...]   # stopword-free, stemmed
    keywords: Tuple[str, ...]        # stopword-free, surface forms
    answer_type: str
    pos_tags: Tuple[str, ...]
    is_question: bool
    #: Stems already computed while answering this question (not part of its value).
    stems: StemMemo = field(default_factory=StemMemo, compare=False, repr=False)
    #: Sentence text -> (tokens, CRF tags), filled by the extraction filter so a
    #: sentence several documents repeat is tagged once (not part of its value either).
    tagged: Dict[str, Tuple[List[str], List[str]]] = field(
        default_factory=dict, compare=False, repr=False
    )


def classify_answer_type(question: str) -> str:
    """Map a question to the entity type its answer should have."""
    lowered = question.lower()
    for pattern, answer_type in _TYPE_RULES:
        if pattern.test(lowered):
            return answer_type
    return GENERIC


def is_question(text: str) -> bool:
    """True if the text reads as a question (word form or trailing '?')."""
    lowered = text.strip().lower()
    return bool(lowered) and (
        _QUESTION_WORD.test(lowered) or lowered.endswith("?")
    )


def sanitize(text: str) -> str:
    """Drop special characters, as OpenEphyra's input filter does."""
    pieces: List[str] = []
    pos = 0
    for match in _SPECIAL_CHARS.finditer(text):
        pieces.append(text[pos : match.start])
        pos = match.end
    pieces.append(text[pos:])
    return "".join(pieces)


def analyze(question: str, tagger: Optional[LinearChainCRF] = None) -> AnalyzedQuestion:
    """Full question analysis used by the QA engine.

    >>> analyzed = analyze("Who was elected 44th president?")
    >>> analyzed.answer_type
    'PERSON'
    >>> 'presid' in analyzed.content_terms
    True
    """
    clean = sanitize(question)
    tokens = tuple(tokenize(clean))
    surface = tuple(tokenize_keep_case(clean))
    keywords = tuple(remove_stopwords(list(tokens)))
    stems = StemMemo()
    content_terms = tuple(stems.stem(word) for word in keywords)
    tagger = tagger if tagger is not None else default_model()
    pos_tags = tuple(tagger.decode(list(surface)))
    return AnalyzedQuestion(
        text=question,
        tokens=tokens,
        content_terms=content_terms,
        keywords=keywords,
        answer_type=classify_answer_type(clean),
        pos_tags=pos_tags,
        is_question=is_question(clean),
        stems=stems,
    )


def search_query(analyzed: AnalyzedQuestion) -> str:
    """The web-search query string OpenEphyra would issue."""
    return " ".join(analyzed.keywords)
