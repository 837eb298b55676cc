"""OpenEphyra-style question-answering engine.

Pipeline per question (paper Figure 6): analyze the question (regex + stemmer
+ CRF), form a web-search query, retrieve documents, run the document-filter
chain on each, aggregate candidate scores, return the best answer.  Every
stage is a timed section so Figures 8 and 9 can be reproduced, and filter hits are
reported for the latency-vs-hits correlation (Figure 8c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import QueryError
from repro.obs.context import section
from repro.qa.crf import LinearChainCRF, default_model
from repro.qa.extraction import Candidate
from repro.qa.filters import CandidateExtractionFilter, FilterPipeline, FilterStats
from repro.qa.question import AnalyzedQuestion, analyze, search_query
from repro.qa.scoring import ScoredAnswer, aggregate
from repro.websearch import SearchEngine


@dataclass
class QAResult:
    """Answer plus the diagnostics the paper's analysis needs."""

    question: str
    answer: Optional[ScoredAnswer]
    ranked: List[ScoredAnswer]
    stats: FilterStats
    analyzed: AnalyzedQuestion

    @property
    def answered(self) -> bool:
        return self.answer is not None

    @property
    def answer_text(self) -> str:
        return self.answer.text if self.answer else ""


class QAEngine:
    """The QA service of Sirius.

    >>> engine = QAEngine(SearchEngine.with_default_corpus())
    >>> engine.answer("What is the capital of Italy?").answer_text
    'rome'
    """

    def __init__(
        self,
        search_engine: Optional[SearchEngine] = None,
        tagger: Optional[LinearChainCRF] = None,
        documents_per_query: int = 10,
    ):
        if documents_per_query < 1:
            raise QueryError("documents_per_query must be >= 1")
        self.search_engine = (
            search_engine
            if search_engine is not None
            else SearchEngine.with_default_corpus()
        )
        self.tagger = tagger if tagger is not None else default_model()
        self.documents_per_query = documents_per_query
        self.pipeline = FilterPipeline(
            extraction_filter=CandidateExtractionFilter(self.tagger)
        )

    def answer(self, question: str) -> QAResult:
        """Answer one natural-language question."""
        if not question or not question.strip():
            raise QueryError("empty question")
        stats = FilterStats()

        with section("qa.analyze"):
            analyzed = analyze(question, self.tagger)

        with section("qa.search"):
            results = self.search_engine.search(
                search_query(analyzed), k=self.documents_per_query
            )

        scored_candidates: List[Tuple[Candidate, float]] = []
        with section("qa.filters"):
            for result in results:
                candidates = self.pipeline.run(analyzed, result.document, stats)
                scored_candidates.extend(
                    (candidate, result.score) for candidate in candidates
                )

        with section("qa.aggregate"):
            ranked = aggregate(analyzed, scored_candidates)

        answer = ranked[0] if ranked else None
        return QAResult(
            question=question,
            answer=answer,
            ranked=ranked,
            stats=stats,
            analyzed=analyzed,
        )

    def answer_text(self, question: str) -> str:
        """Convenience: just the best answer string ('' when unanswered)."""
        return self.answer(question).answer_text
