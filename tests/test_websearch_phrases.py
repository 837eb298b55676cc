"""Tests for positional postings and phrase queries."""

import pytest

from repro.websearch import Document, InvertedIndex, SearchEngine
from repro.websearch.documents import Corpus
from repro.websearch.engine import _split_phrases


@pytest.fixture()
def index():
    idx = InvertedIndex()
    idx.add(Document(0, "", "barack obama was elected president"))
    idx.add(Document(1, "", "obama met barack the dog"))
    idx.add(Document(2, "", "the president was elected"))
    return idx


class TestPositions:
    def test_positions_recorded(self, index):
        posting = index.postings("barack")[0]
        assert posting.positions == (0,)
        assert posting.term_frequency == 1

    def test_repeated_term_positions(self):
        idx = InvertedIndex()
        idx.add(Document(0, "", "rome rome rome"))
        posting = idx.postings("rome")[0]
        assert posting.positions == (0, 1, 2)
        assert posting.term_frequency == 3


class TestPhraseDocuments:
    def test_consecutive_phrase_found(self, index):
        # note: analysis stems; use already-analyzed terms
        docs = index.phrase_documents(["barack", "obama"])
        assert docs == [0]

    def test_reversed_order_not_found(self, index):
        assert index.phrase_documents(["obama", "barack"]) == []

    def test_single_term_phrase(self, index):
        assert set(index.phrase_documents(["barack"])) == {0, 1}

    def test_missing_term(self, index):
        assert index.phrase_documents(["barack", "nixon"]) == []

    def test_empty_phrase(self, index):
        assert index.phrase_documents([]) == []


class TestPhraseSplitting:
    def test_extracts_quoted(self):
        phrases, rest = _split_phrases('"barack obama" capital city')
        assert phrases == ["barack obama"]
        assert "capital" in rest and "barack" not in rest

    def test_multiple_phrases(self):
        phrases, _ = _split_phrases('"a b" and "c d"')
        assert phrases == ["a b", "c d"]

    def test_unterminated_quote_is_plain_text(self):
        phrases, rest = _split_phrases('capital "of italy')
        assert phrases == []
        assert "of italy" in rest

    def test_no_quotes(self):
        phrases, rest = _split_phrases("plain query")
        assert phrases == [] and rest == "plain query"


class TestPhraseSearch:
    @pytest.fixture(scope="class")
    def engine(self):
        return SearchEngine.with_default_corpus()

    def test_phrase_restricts_results(self, engine):
        plain = engine.search("barack obama president")
        phrased = engine.search('"barack obama" president')
        assert phrased
        phrase_ids = {r.document.doc_id for r in phrased}
        plain_ids = {r.document.doc_id for r in plain}
        assert phrase_ids <= plain_ids or len(phrased) <= len(plain)
        for result in phrased:
            assert "barack obama" in result.document.text.lower()

    def test_impossible_phrase_empty(self, engine):
        assert engine.search('"obama barack"') == []

    def test_phrase_plus_terms_ranked(self, engine):
        results = engine.search('"capital of italy"')
        assert results
        assert "Italy" in results[0].document.title

    @pytest.mark.parametrize("phrase", ['"the"', '" "', '""'])
    def test_termless_phrase_constrains_nothing(self, engine, phrase):
        plain = engine.search("capital of italy")
        assert len(plain) == 10
        assert engine.search(f"{phrase} capital of italy") == plain
