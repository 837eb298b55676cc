"""Inverted index over a document collection.

Postings are stored per term as ``{doc_id: term_frequency}``; document lengths
and average length are tracked for BM25.  This is the "memory resident" index
configuration the paper uses for its Web Search baseline (Apache Nutch tuned
to go no further than main memory).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.qa.stemmer import stem
from repro.qa.tokenizer import remove_stopwords, tokenize
from repro.websearch.documents import Document


def analyze(text: str) -> List[str]:
    """Text → index terms: tokenize, drop stopwords, stem."""
    return [stem(token) for token in remove_stopwords(tokenize(text))]


@dataclass
class Posting:
    """One document entry in a term's posting list."""

    doc_id: int
    term_frequency: int


class InvertedIndex:
    """Term → postings map with document statistics."""

    def __init__(self) -> None:
        self._postings: Dict[str, List[Posting]] = {}
        self._doc_lengths: Dict[int, int] = {}
        self._documents: Dict[int, Document] = {}

    # -- construction ----------------------------------------------------------

    def add(self, document: Document) -> None:
        if document.doc_id in self._documents:
            raise ValueError(f"duplicate doc_id {document.doc_id}")
        terms = analyze(document.title + " " + document.text)
        self._documents[document.doc_id] = document
        self._doc_lengths[document.doc_id] = len(terms)
        for term, frequency in Counter(terms).items():
            self._postings.setdefault(term, []).append(
                Posting(document.doc_id, frequency)
            )

    def add_all(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add(document)

    # -- statistics --------------------------------------------------------------

    @property
    def n_documents(self) -> int:
        return len(self._documents)

    @property
    def average_doc_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return sum(self._doc_lengths.values()) / len(self._doc_lengths)

    def doc_length(self, doc_id: int) -> int:
        return self._doc_lengths[doc_id]

    def document(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, []))

    def postings(self, term: str) -> List[Posting]:
        return self._postings.get(term, [])
