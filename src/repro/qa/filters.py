"""Document filters — the variability engine of the QA service.

The paper finds QA latency varies 1.7s–35s across questions and traces the
variance to "the runtime variability of various document filters" whose work
scales with the number of filter *hits* (Figure 8c).  Each filter below
reports its hit count; the engine aggregates them so that the latency-vs-hits
correlation can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.profiling import Profiler
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

    sentence_hits: int = 0     # sentences passing the keyword filter
    regex_hits: int = 0        # entity-pattern matches inside those sentences
    candidate_hits: int = 0    # typed answer candidates extracted
    documents_seen: int = 0

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
    """Selects document sentences sharing stemmed content terms with the question."""

    def __init__(self, min_overlap: int = 1):
        if min_overlap < 1:
            raise ValueError("min_overlap must be >= 1")
        self.min_overlap = min_overlap

    def apply(
        self, question: AnalyzedQuestion, document: Document, stats: FilterStats
    ) -> List[FilteredSentence]:
        terms = set(question.content_terms)
        selected: List[FilteredSentence] = []
        for sentence in document.sentences:
            overlap = len(terms & question.stems.stems_of(sentence))
            if overlap >= self.min_overlap:
                selected.append(FilteredSentence(sentence, overlap))
                stats.sentence_hits += 1
        return selected


class RegexEntityFilter:
    """Counts entity-shape matches; sentences with no entities are dropped."""

    def __init__(self, patterns: Optional[Sequence[Pattern]] = None):
        self.patterns = list(patterns) if patterns is not None else list(ENTITY_PATTERNS)

    def apply(
        self, filtered: List[FilteredSentence], stats: FilterStats
    ) -> List[FilteredSentence]:
        surviving: List[FilteredSentence] = []
        for item in filtered:
            matches = sum(pattern.count(item.text) for pattern in self.patterns)
            stats.regex_hits += matches
            if matches > 0:
                surviving.append(item)
        return surviving


class CandidateExtractionFilter:
    """Runs typed candidate extraction (CRF-backed) on surviving sentences.

    A corpus states a fact in several articles, so one question's sentences
    repeat.  Its tagger is fixed: each distinct sentence is tagged once, the
    tags kept on the question (``tagged``), and a repeat is charged the decode
    it did not run (the ``StemMemo`` rule) before its candidates are read off.
    """

    def __init__(self, tagger: Optional[LinearChainCRF] = None):
        self.tagger = tagger if tagger is not None else default_model()

    def apply(
        self,
        question: AnalyzedQuestion,
        filtered: List[FilteredSentence],
        stats: FilterStats,
    ) -> List[Candidate]:
        candidates: List[Candidate] = []
        for item in filtered:
            entry = question.tagged.get(item.text)
            if entry is None:
                tokens = tokenize_keep_case(item.text)
                entry = question.tagged[item.text] = (tokens, self.tagger.decode(tokens))
            elif entry[0]:
                record_decode_work(len(entry[0]), self.tagger.n_tags)
            found = typed_candidates(item.text, *entry, question.answer_type)
            stats.candidate_hits += len(found)
            candidates.extend(found)
        return candidates


@dataclass
class FilterPipeline:
    """The full per-document filter chain used by the QA engine."""

    keyword_filter: KeywordOverlapFilter = field(default_factory=KeywordOverlapFilter)
    regex_filter: RegexEntityFilter = field(default_factory=RegexEntityFilter)
    extraction_filter: CandidateExtractionFilter = field(
        default_factory=CandidateExtractionFilter
    )

    def run(
        self,
        question: AnalyzedQuestion,
        document: Document,
        stats: FilterStats,
        profiler: Optional[Profiler] = None,
    ) -> List[Candidate]:
        """Filter one document; profiled per hot component when given a profiler.

        Sections: ``qa.stemmer`` (keyword/stem overlap), ``qa.regex`` (entity
        patterns), ``qa.crf`` (candidate extraction via the tagger) — the
        three components Figure 9 shows dominating QA cycles.
        """
        profiler = profiler if profiler is not None else Profiler()
        stats.documents_seen += 1
        with profiler.section("qa.stemmer"):
            selected = self.keyword_filter.apply(question, document, stats)
        with profiler.section("qa.regex"):
            surviving = self.regex_filter.apply(selected, stats)
        with profiler.section("qa.crf"):
            return self.extraction_filter.apply(question, surviving, stats)
