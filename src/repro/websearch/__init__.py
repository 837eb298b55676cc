"""Web-search substrate: corpus, inverted index, BM25, engine facade."""

from repro.websearch.bm25 import BM25, ScoredDocument
from repro.websearch.documents import Corpus, Document, Fact, FACTS
from repro.websearch.engine import SearchEngine, SearchResult
from repro.websearch.index import InvertedIndex, analyze

__all__ = [
    "BM25",
    "Corpus",
    "Document",
    "Fact",
    "FACTS",
    "InvertedIndex",
    "ScoredDocument",
    "SearchEngine",
    "SearchResult",
    "analyze",
]
