"""Search engine facade: the paper's Web Search (Apache Nutch) baseline.

Wraps corpus construction, indexing, and BM25 ranking behind one object so
both the QA service (document retrieval) and the scalability-gap experiment
(WS query latency) use the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple


def _split_phrases(query: str) -> Tuple[List[str], str]:
    """Extract double-quoted phrases; return (phrases, remaining text)."""
    phrases: List[str] = []
    remainder_parts: List[str] = []
    inside = False
    current: List[str] = []
    for char in query:
        if char == '"':
            if inside and current:
                phrases.append("".join(current))
            current = []
            inside = not inside
            continue
        if inside:
            current.append(char)
        else:
            remainder_parts.append(char)
    if inside and current:  # unterminated quote: treat as plain text
        remainder_parts.extend(current)
    return phrases, "".join(remainder_parts)

from repro.errors import QueryError
from repro.websearch.bm25 import BM25, ScoredDocument
from repro.websearch.documents import Corpus, Document
from repro.websearch.index import InvertedIndex, analyze


@dataclass(frozen=True)
class SearchResult:
    """One ranked hit: the document plus its BM25 score."""

    document: Document
    score: float


class SearchEngine:
    """An in-memory web-search service over a corpus.

    >>> engine = SearchEngine.with_default_corpus()
    >>> engine.search("capital of Italy")[0].document.title.startswith("Italy")
    True
    """

    def __init__(self, corpus: Iterable[Document]):
        self.corpus = corpus
        self.index = InvertedIndex()
        self.index.add_all(corpus)
        self.bm25 = BM25(self.index)

    @classmethod
    def with_default_corpus(cls) -> "SearchEngine":
        return cls(Corpus())

    def search(self, query: str, k: int = 10) -> List[SearchResult]:
        """Rank documents for a free-text query.

        Double-quoted segments are phrase constraints: ``'"barack obama"
        capital'`` only returns documents where the quoted terms appear
        consecutively, ranked by BM25 over all terms.  A phrase with no
        indexable terms (``'"the"'``) constrains nothing.
        """
        if k < 1:
            raise QueryError("search needs k >= 1")
        phrases, remainder = _split_phrases(query)
        terms = analyze(remainder)
        allowed = None
        for phrase in phrases:
            phrase_terms = analyze(phrase)
            if not phrase_terms:
                continue
            terms.extend(phrase_terms)
            docs = set(self.index.phrase_documents(phrase_terms))
            allowed = docs if allowed is None else (allowed & docs)
        if not terms:
            return []
        scored: List[ScoredDocument] = self.bm25.top_k(
            terms, k if allowed is None else self.index.n_documents
        )
        results = [
            SearchResult(self.index.document(item.doc_id), item.score)
            for item in scored
            if allowed is None or item.doc_id in allowed
        ]
        return results[:k]

    def best(self, query: str) -> Optional[SearchResult]:
        results = self.search(query, k=1)
        return results[0] if results else None

    @property
    def n_documents(self) -> int:
        return self.index.n_documents
