"""Okapi BM25 ranking over an :class:`~repro.websearch.index.InvertedIndex`."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.websearch.index import InvertedIndex

#: Term-frequency saturation and document-length normalisation.
K1 = 1.5
B = 0.75


@dataclass(frozen=True)
class ScoredDocument:
    doc_id: int
    score: float


class BM25:
    """Standard BM25 with the usual ``K1``/``B`` parametrization.

    idf uses the squashed form ``log(1 + (N - df + 0.5) / (df + 0.5))`` so
    scores stay positive even for very common terms.
    """

    def __init__(self, index: InvertedIndex):
        self.index = index

    def idf(self, term: str) -> float:
        df = self.index.document_frequency(term)
        n = self.index.n_documents
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def score_all(self, terms: Sequence[str]) -> Dict[int, float]:
        """Accumulate BM25 scores for every document matching any term."""
        scores: Dict[int, float] = {}
        avg_len = self.index.average_doc_length or 1.0
        for term in terms:
            idf = self.idf(term)
            for posting in self.index.postings(term):
                tf = posting.term_frequency
                norm = K1 * (1.0 - B + B * self.index.doc_length(posting.doc_id) / avg_len)
                gain = idf * tf * (K1 + 1.0) / (tf + norm)
                scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + gain
        return scores

    def top_k(self, terms: Sequence[str], k: int = 10) -> List[ScoredDocument]:
        """The ``k`` best documents for a term list, best first."""
        scores = self.score_all(terms)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return [ScoredDocument(doc_id, score) for doc_id, score in ranked[:k]]
