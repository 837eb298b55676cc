"""Integration-level tests for the QA engine and its stages."""

import pytest

from repro.errors import QueryError
from repro.qa import (
    DATE,
    GENERIC,
    LOCATION,
    NUMBER,
    PERSON,
    QAEngine,
    analyze,
    classify_answer_type,
    is_question,
    search_query,
)
from repro.qa.crf import default_model
from repro.qa.extraction import typed_candidates
from repro.qa.filters import FilterPipeline, FilterStats
from repro.qa.question import sanitize
from repro.qa.scoring import aggregate
from repro.qa.tokenizer import tokenize_keep_case
from repro.websearch import Corpus, Document, SearchEngine


def extract_candidates(sentence, answer_type):
    """Every ``answer_type`` candidate in ``sentence``, tagged by the default CRF."""
    tokens = tokenize_keep_case(sentence)
    return typed_candidates(sentence, tokens, default_model().decode(tokens), answer_type)


@pytest.fixture(scope="module")
def engine():
    return QAEngine()


class TestQuestionAnalysis:
    @pytest.mark.parametrize(
        "question,expected",
        [
            ("Who was elected 44th president?", PERSON),
            ("Where is Las Vegas?", LOCATION),
            ("When did the Titanic sink?", DATE),
            ("How many rivers are there?", NUMBER),
            ("How tall is Mount Everest?", NUMBER),
            ("What is the capital of Italy?", LOCATION),
            ("What is relativity?", GENERIC),
            ("Which city hosts the festival?", LOCATION),
            ("Who is the author of Harry Potter?", PERSON),
        ],
    )
    def test_answer_type(self, question, expected):
        assert classify_answer_type(question) == expected

    def test_is_question(self):
        assert is_question("What time is it")
        assert is_question("set an alarm?")  # trailing question mark
        assert not is_question("Set my alarm for 8am.")
        assert not is_question("")

    def test_sanitize_removes_special_chars(self):
        assert sanitize("hello @#$ world?") == "hello  world?"

    def test_sanitize_keeps_normal_text(self):
        text = "Who was elected 44th president?"
        assert sanitize(text) == text

    def test_analyze_fields(self):
        analyzed = analyze("Who was elected 44th president?")
        assert analyzed.is_question
        assert analyzed.answer_type == PERSON
        assert "elect" in analyzed.content_terms
        assert len(analyzed.pos_tags) == len(analyze("Who was elected 44th president?").pos_tags)

    def test_search_query_drops_stopwords(self):
        analyzed = analyze("What is the capital of Italy?")
        query = search_query(analyzed)
        assert "the" not in query.split()
        assert "capital" in query and "italy" in query


class TestExtraction:
    def test_person_extraction(self):
        candidates = extract_candidates(
            "Barack Obama was elected 44th president.", PERSON
        )
        texts = [c.text for c in candidates]
        assert "Barack Obama" in texts

    def test_date_extraction(self):
        candidates = extract_candidates("The Titanic sank in 1912.", DATE)
        assert [c.text for c in candidates] == ["1912"]

    def test_number_with_unit(self):
        candidates = extract_candidates("Everest rises 8848 meters above sea.", NUMBER)
        assert any(c.text == "8848 meters" for c in candidates)

    def test_generic_mixes_types(self):
        candidates = extract_candidates("Rome hosted 100 games.", GENERIC)
        texts = {c.text for c in candidates}
        assert "Rome" in texts and "100" in texts

    def test_empty_sentence(self):
        assert extract_candidates("", PERSON) == []

    def test_date_ignores_non_years(self):
        candidates = extract_candidates("It cost 25 dollars in 1999.", DATE)
        assert [c.text for c in candidates] == ["1999"]


class TestFilters:
    def test_keyword_filter_counts_hits(self):
        pipeline = FilterPipeline()
        stats = FilterStats()
        analyzed = analyze("What is the capital of Italy?")
        document = Document(0, "t", "Rome is the capital of Italy. Unrelated words here.")
        (candidates,) = pipeline.run(analyzed, [document], stats)
        assert stats.documents_seen == 1
        assert stats.sentence_hits == 1  # only the first sentence overlaps
        assert stats.regex_hits >= 1
        assert any(c.text == "Rome" for c in candidates)

    def test_no_overlap_no_candidates(self):
        pipeline = FilterPipeline()
        stats = FilterStats()
        analyzed = analyze("What is the capital of Italy?")
        document = Document(0, "t", "Completely unrelated filler text.")
        assert pipeline.run(analyzed, [document], stats) == [[]]
        assert stats.sentence_hits == 0

    def test_no_documents(self):
        stats = FilterStats()
        assert FilterPipeline().run(analyze("What is the capital of Italy?"), [], stats) == []
        assert stats == FilterStats()

    def test_stats_merge(self):
        a, b = FilterStats(), FilterStats()
        a.sentence_hits, a.regex_hits, a.candidate_hits, a.documents_seen = 1, 2, 3, 1
        b.sentence_hits, b.regex_hits, b.candidate_hits, b.documents_seen = 10, 20, 30, 2
        a.merge(b)
        assert (a.sentence_hits, a.regex_hits, a.candidate_hits) == (11, 22, 33)
        assert a.total_hits == 66

    def test_min_overlap_validation(self):
        from repro.qa.filters import KeywordOverlapFilter

        # One shared content term is enough to select a sentence.
        analyzed = analyze("Who designed the Eiffel Tower?")
        document = Document(0, "t", "Eiffel was an engineer. Nothing else matches.")
        stats = FilterStats()
        selected = KeywordOverlapFilter().apply(analyzed, document, stats)
        assert [item.overlap for item in selected] == [1] and stats.sentence_hits == 1


class TestScoring:
    def test_aggregate_prefers_repeated_support(self):
        from repro.qa.extraction import Candidate

        analyzed = analyze("Who discovered penicillin?")
        fleming = Candidate("Alexander Fleming", PERSON, "Alexander Fleming discovered penicillin.")
        other = Candidate("Marie Curie", PERSON, "Marie Curie studied radiation.")
        ranked = aggregate(analyzed, [(fleming, 1.0), (fleming, 1.0), (other, 1.0)])
        assert ranked[0].text == "Alexander Fleming"
        assert ranked[0].support == 2

    def test_question_echo_penalized(self):
        from repro.qa.extraction import Candidate

        analyzed = analyze("Who is the author of Harry Potter?")
        echo = Candidate("Harry Potter", PERSON, "The author of Harry Potter is J.K. Rowling.")
        real = Candidate("J.K. Rowling", PERSON, "The author of Harry Potter is J.K. Rowling.")
        ranked = aggregate(analyzed, [(echo, 1.0), (real, 1.0)])
        assert ranked[0].text == "J.K. Rowling"

    def test_empty_candidates(self):
        analyzed = analyze("Who?")
        assert aggregate(analyzed, []) == []


class TestQAEngine:
    @pytest.mark.parametrize(
        "question,expected",
        [
            ("What is the capital of Italy?", "rome"),
            ("What is the capital of Cuba?", "havana"),
            ("Who was elected 44th president of the United States?", "barack obama"),
            ("Where is Las Vegas?", "nevada"),
            ("When did the Titanic sink?", "1912"),
            ("Who invented the telephone?", "alexander graham bell"),
            ("Who discovered penicillin?", "alexander fleming"),
            ("What is the capital of Japan?", "tokyo"),
        ],
    )
    def test_answers_known_facts(self, engine, question, expected):
        assert engine.answer(question).answer_text.lower() == expected

    def test_empty_question_raises(self, engine):
        with pytest.raises(QueryError):
            engine.answer("   ")

    def test_result_diagnostics(self, engine):
        result = engine.answer("What is the capital of France?")
        assert result.answered
        assert result.stats.total_hits > 0

    def test_unanswerable_question_returns_unanswered_or_weak(self, engine):
        result = engine.answer("What is the meaning of xyzzy?")
        # No KB fact; either no answer or low support.
        assert result.answer is None or result.answer.support <= 3

    def test_documents_per_query_validation(self):
        with pytest.raises(QueryError):
            QAEngine(documents_per_query=0)

    def test_custom_profiler(self, engine, sections_of):
        seconds = sections_of(lambda: engine.answer("What is the capital of Spain?"))
        assert {"qa.analyze", "qa.search", "qa.filters", "qa.aggregate",
                "qa.stemmer", "qa.regex", "qa.crf"} == set(seconds)
        assert sum(seconds.values()) > 0

    def test_filter_hits_track_latency_driver(self, engine):
        # More retrievable content => more hits; correlation backbone of Fig 8c.
        rich = engine.answer("What is the capital of Italy?")
        poor = engine.answer("What is the meaning of xyzzy?")
        assert rich.stats.total_hits > poor.stats.total_hits

    def test_supplied_tagger_is_the_only_model_built(self, monkeypatch):
        # FilterPipeline()'s default extraction filter used to train the
        # default model (about a second) before the engine swapped its own in;
        # it would now load the shipped one.
        import repro.qa.crf.train as crf_train
        import repro.trained

        tagger = crf_train.train_crf(crf_train.generate_corpus(20)).model

        def refuse(*args, **kwargs):
            raise AssertionError("the default model was built")

        monkeypatch.setattr(crf_train, "_CACHED_MODEL", None)
        monkeypatch.setattr(crf_train, "train_crf", refuse)
        monkeypatch.setattr(repro.trained, "load_crf_tagger", refuse)
        engine = QAEngine(SearchEngine(Corpus()), tagger=tagger)
        assert engine.tagger is tagger
        assert engine.pipeline.extraction_filter.tagger is tagger
        assert engine.answer("What is the capital of Italy?").stats.documents_seen > 0
