"""Answer matching: does a ranked answer name the gold answer?

A gold answer counts as found when its normalized form appears inside a
ranked answer (so "Rowling" matches "J K Rowling"), or the other way round.
"""

from __future__ import annotations

from repro.qa.tokenizer import tokenize


def _normalize(text: str) -> str:
    return " ".join(tokenize(text))


def answer_matches(gold: str, candidate: str) -> bool:
    """True when the gold answer (or the candidate) contains the other."""
    gold_norm = _normalize(gold)
    candidate_norm = _normalize(candidate)
    if not gold_norm or not candidate_norm:
        return False
    return gold_norm in candidate_norm or candidate_norm in gold_norm
