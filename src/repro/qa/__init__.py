"""Question-Answering service (OpenEphyra replacement).

Hot components per the paper (Figure 9): Porter stemming, regular-expression
matching (:mod:`repro.regex`), and CRF part-of-speech tagging together
account for ~85% of QA cycles.
"""

from repro.qa.engine import QAEngine, QAResult
from repro.qa.evaluate import answer_matches
from repro.qa.extraction import Candidate
from repro.qa.filters import FilterPipeline, FilterStats
from repro.qa.question import (
    DATE,
    GENERIC,
    LOCATION,
    NUMBER,
    PERSON,
    AnalyzedQuestion,
    analyze,
    classify_answer_type,
    is_question,
    search_query,
)
from repro.qa.scoring import ScoredAnswer, aggregate
from repro.qa.stemmer import PorterStemmer, stem
from repro.qa.tokenizer import remove_stopwords, sentences, tokenize

__all__ = [
    "AnalyzedQuestion",
    "Candidate",
    "DATE",
    "FilterPipeline",
    "FilterStats",
    "GENERIC",
    "LOCATION",
    "NUMBER",
    "PERSON",
    "answer_matches",
    "PorterStemmer",
    "QAEngine",
    "QAResult",
    "ScoredAnswer",
    "aggregate",
    "analyze",
    "classify_answer_type",
    "is_question",
    "remove_stopwords",
    "search_query",
    "sentences",
    "stem",
    "tokenize",
]
