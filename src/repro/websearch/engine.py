"""Search engine facade: the paper's Web Search (Apache Nutch) baseline.

Wraps corpus construction, indexing, and BM25 ranking behind one object so
both the QA service (document retrieval) and the scalability-gap experiment
(WS query latency) use the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

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
        """Rank documents for a free-text query by BM25 over its terms."""
        if k < 1:
            raise QueryError("search needs k >= 1")
        terms = analyze(query)
        if not terms:
            return []
        scored: List[ScoredDocument] = self.bm25.top_k(terms, k)
        return [
            SearchResult(self.index.document(item.doc_id), item.score)
            for item in scored
        ]
