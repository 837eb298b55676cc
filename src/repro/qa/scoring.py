"""Answer scoring and aggregation (OpenEphyra's "score aggregation" stage).

Candidates from all documents are grouped by normalized surface form; each
group's score combines how often it was extracted, the retrieval scores of
the documents it came from, and keyword proximity within its sentences.  The
highest aggregate wins — "the document with the highest overall score after
score aggregation is returned as the best answer" (Section 2.3.3).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.qa.extraction import Candidate
from repro.qa.question import AnalyzedQuestion
from repro.qa.tokenizer import tokenize

#: Ranked answers a question keeps.
TOP_K = 5


@dataclass(frozen=True)
class ScoredAnswer:
    """A final ranked answer."""

    text: str
    score: float
    support: int  # number of extractions that voted for it
    support_sentence: str = ""  # the best supporting evidence sentence


def _normalize(text: str) -> str:
    return " ".join(tokenize(text))


def _proximity_bonus(question: AnalyzedQuestion, sentence: str) -> float:
    """Fraction of question content terms present in the candidate's sentence."""
    terms = set(question.content_terms)
    if not terms:
        return 0.0
    return len(terms & question.stems.stems_of(sentence)) / len(terms)


def _question_echo_penalty(question: AnalyzedQuestion, candidate_text: str) -> float:
    """Penalize candidates that merely repeat the question's own words."""
    candidate_stems = question.stems.stems_of(candidate_text)
    if not candidate_stems:
        return 1.0
    return len(candidate_stems & set(question.content_terms)) / len(candidate_stems)


def aggregate(
    question: AnalyzedQuestion,
    candidates: Sequence[Tuple[Candidate, float]],
) -> List[ScoredAnswer]:
    """Rank candidates; each item pairs a Candidate with its document score.
    The best ``TOP_K`` answers are kept.

    Score per group = sum over extractions of
    ``doc_score * (1 + proximity) * (1 - 0.8 * echo_penalty)``.
    """
    groups: Dict[str, List[Tuple[Candidate, float]]] = defaultdict(list)
    display: Dict[str, str] = {}
    for candidate, doc_score in candidates:
        key = _normalize(candidate.text)
        if not key:
            continue
        groups[key].append((candidate, doc_score))
        display.setdefault(key, candidate.text)

    answers: List[ScoredAnswer] = []
    for key, members in groups.items():
        total = 0.0
        best_member_score = -1.0
        best_sentence = ""
        for candidate, doc_score in members:
            proximity = _proximity_bonus(question, candidate.sentence)
            echo = _question_echo_penalty(question, candidate.text)
            contribution = doc_score * (1.0 + proximity) * (1.0 - 0.8 * echo)
            total += contribution
            if contribution > best_member_score:
                best_member_score = contribution
                best_sentence = candidate.sentence
        answers.append(
            ScoredAnswer(display[key], total, len(members), best_sentence)
        )

    answers.sort(key=lambda a: (-a.score, -a.support, a.text))
    return answers[:TOP_K]
