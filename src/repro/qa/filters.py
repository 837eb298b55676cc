"""Document filters — the variability engine of the QA service.

The paper finds QA latency varies 1.7s–35s across questions and traces the
variance to "the runtime variability of various document filters" whose work
scales with the number of filter *hits* (Figure 8c).  Each filter below
reports its hit count; the engine aggregates them so that the latency-vs-hits
correlation can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.context import section
from repro.qa.crf import LinearChainCRF, default_model
from repro.qa.crf.model import record_decode_work
from repro.qa.extraction import Candidate, typed_candidates
from repro.qa.question import AnalyzedQuestion
from repro.qa.tokenizer import tokenize_keep_case
from repro.regex import Pattern
from repro.websearch import Document

#: Entity-shape patterns applied to every selected sentence (regex filter).
ENTITY_PATTERNS: List[Pattern] = [
    Pattern(r"\b(1[0-9]{3}|20[0-9]{2})\b"),            # years
    Pattern(r"\b\d+(th|st|nd|rd)\b"),                   # ordinals
    Pattern(r"\b[A-Z][a-z]+( [A-Z][a-z]+)+\b"),        # multiword names
    Pattern(r"\b\d+([.,]\d+)?\b"),                      # plain numbers
    Pattern(r"\b(capital|president|author|inventor|founder|river|ocean)\b"),
]


@dataclass
class FilterStats:
    """Hit counters per filter, accumulated over one question."""

    #: Sentences passing the keyword filter, entity-pattern matches inside
    #: them, typed answer candidates extracted, and documents filtered.
    sentence_hits: int = field(default=0, init=False)
    regex_hits: int = field(default=0, init=False)
    candidate_hits: int = field(default=0, init=False)
    documents_seen: int = field(default=0, init=False)

    @property
    def total_hits(self) -> int:
        return self.sentence_hits + self.regex_hits + self.candidate_hits

    def merge(self, other: "FilterStats") -> None:
        self.sentence_hits += other.sentence_hits
        self.regex_hits += other.regex_hits
        self.candidate_hits += other.candidate_hits
        self.documents_seen += other.documents_seen


@dataclass(frozen=True)
class FilteredSentence:
    """A sentence that survived keyword filtering, with its overlap score."""

    text: str
    overlap: int


class KeywordOverlapFilter:
    """Selects document sentences sharing at least one stemmed content term
    with the question."""

    def apply(
        self, question: AnalyzedQuestion, document: Document, stats: FilterStats
    ) -> List[FilteredSentence]:
        terms = set(question.content_terms)
        selected: List[FilteredSentence] = []
        for sentence in document.sentences:
            overlap = len(terms & question.stems.stems_of(sentence))
            if overlap:
                selected.append(FilteredSentence(sentence, overlap))
                stats.sentence_hits += 1
        return selected


class RegexEntityFilter:
    """Counts ``ENTITY_PATTERNS`` matches; sentences with no entities are dropped."""

    def apply(
        self, filtered: List[FilteredSentence], stats: FilterStats
    ) -> List[FilteredSentence]:
        surviving: List[FilteredSentence] = []
        for item in filtered:
            matches = sum(pattern.count(item.text) for pattern in ENTITY_PATTERNS)
            stats.regex_hits += matches
            if matches > 0:
                surviving.append(item)
        return surviving


class CandidateExtractionFilter:
    """Runs typed candidate extraction (CRF-backed) on surviving sentences.

    A corpus states a fact in several articles, so one question's sentences
    repeat.  Its tagger is fixed: each distinct sentence is tagged once
    (:meth:`tag`, every pending sentence in one lattice) and the tags kept on
    the question (``tagged``).  :meth:`apply` charges one decode to the
    calling section for every sentence it presents — tagged there, earlier,
    or by another document's lattice (the ``StemMemo`` rule) — before its
    candidates are read off.
    """

    def __init__(self, tagger: Optional[LinearChainCRF] = None):
        self.tagger = tagger if tagger is not None else default_model()

    def tag(self, question: AnalyzedQuestion, filtered: Sequence[FilteredSentence]) -> None:
        """Tag every sentence of ``filtered`` the question has not tagged
        yet, all in one :meth:`~LinearChainCRF.decode_lattice` (no work charged)."""
        pending: Dict[str, List[str]] = {}
        for item in filtered:
            if item.text not in question.tagged and item.text not in pending:
                pending[item.text] = tokenize_keep_case(item.text)
        if pending:
            lattice = self.tagger.decode_lattice(list(pending.values()))
            for (text, tokens), tags in zip(pending.items(), lattice):
                question.tagged[text] = (tokens, tags)

    def apply(
        self,
        question: AnalyzedQuestion,
        filtered: List[FilteredSentence],
        stats: FilterStats,
    ) -> List[Candidate]:
        self.tag(question, filtered)
        candidates: List[Candidate] = []
        for item in filtered:
            tokens, tags = question.tagged[item.text]
            if tokens:
                record_decode_work(len(tokens), self.tagger.n_tags)
            found = typed_candidates(item.text, tokens, tags, question.answer_type)
            stats.candidate_hits += len(found)
            candidates.extend(found)
        return candidates


@dataclass
class FilterPipeline:
    """The filter chain used by the QA engine, over all of a question's documents."""

    extraction_filter: CandidateExtractionFilter = field(
        default_factory=CandidateExtractionFilter
    )
    keyword_filter: KeywordOverlapFilter = field(
        default_factory=KeywordOverlapFilter, init=False
    )
    regex_filter: RegexEntityFilter = field(default_factory=RegexEntityFilter, init=False)

    def run(
        self,
        question: AnalyzedQuestion,
        documents: Sequence[Document],
        stats: FilterStats,
    ) -> List[List[Candidate]]:
        """Filter every document; returns each document's candidates, in order.

        One section per hot component per document: ``qa.stemmer``
        (keyword/stem overlap) and ``qa.regex`` (entity patterns) for every
        document, then ``qa.crf`` (candidate extraction via the tagger) for
        every document — the three components Figure 9 shows dominating QA
        cycles.  The first ``qa.crf`` section tags every sentence that
        survived in any document in one lattice; each section charges the
        decodes of its own document's sentences.
        """
        surviving: List[List[FilteredSentence]] = []
        for document in documents:
            stats.documents_seen += 1
            with section("qa.stemmer"):
                selected = self.keyword_filter.apply(question, document, stats)
            with section("qa.regex"):
                surviving.append(self.regex_filter.apply(selected, stats))
        extraction = self.extraction_filter
        candidates: List[List[Candidate]] = []
        for filtered in surviving:
            with section("qa.crf"):
                if not candidates:
                    extraction.tag(question, [item for items in surviving for item in items])
                candidates.append(extraction.apply(question, filtered, stats))
        return candidates
