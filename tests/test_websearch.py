"""Tests for the web-search substrate: corpus, index, BM25, engine."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.websearch import (
    BM25,
    Corpus,
    Document,
    FACTS,
    InvertedIndex,
    SearchEngine,
    analyze,
)
from repro.websearch.bm25 import B, K1
from repro.websearch.documents import DOCUMENTS_PER_FACT, N_NOISE_DOCS


@pytest.fixture(scope="module")
def engine():
    return SearchEngine.with_default_corpus()


class TestCorpus:
    def test_deterministic(self):
        a = Corpus()
        b = Corpus()
        assert [d.text for d in a] == [d.text for d in b]

    def test_size(self):
        corpus = Corpus()
        assert len(corpus) == DOCUMENTS_PER_FACT * len(FACTS) + N_NOISE_DOCS

    def test_fact_docs_contain_answer(self):
        corpus = Corpus()
        for index, document in enumerate(corpus.documents[: DOCUMENTS_PER_FACT * len(FACTS)]):
            fact = FACTS[index // DOCUMENTS_PER_FACT]
            # The assertion sentence embeds the answer verbatim.
            assert fact.sentence in document.text
            assert fact.answer.split()[0].lower() in document.text.lower()

    def test_noise_docs_have_no_answer(self):
        corpus = Corpus()
        for document in corpus.documents[-N_NOISE_DOCS:]:
            assert not any(fact.sentence in document.text for fact in FACTS)


class TestDocumentSentences:
    def test_split_once_with_the_tokenizer(self):
        from repro.qa.tokenizer import sentences

        for document in Corpus():
            assert document.sentences == tuple(sentences(document.text))
        assert Document(0, "t", "").sentences == ()

    def test_not_part_of_the_documents_value(self):
        import pickle
        from dataclasses import replace

        document = Document(7, "J.K. Rowling", "She wrote it. Did J.K. Rowling? Yes!")
        assert document.sentences == ("She wrote it.", "Did J.K. Rowling?", "Yes!")
        assert document == Document(doc_id=7, title="J.K. Rowling", text=document.text)
        assert hash(document) == hash((7, "J.K. Rowling", document.text))
        assert "sentences" not in repr(document)
        copy = pickle.loads(pickle.dumps(document))
        assert copy == document and copy.sentences == document.sentences
        assert replace(document, text="One. Two.").sentences == ("One.", "Two.")
        with pytest.raises(TypeError):
            Document(7, "t", "text", ("text",))


class TestAnalyze:
    def test_stems_and_drops_stopwords(self):
        terms = analyze("What is the capital of Italy?")
        assert "capit" in terms  # Porter stem of capital
        assert "the" not in terms and "what" not in terms

    def test_empty(self):
        assert analyze("") == []


class TestInvertedIndex:
    def test_postings_and_df(self):
        index = InvertedIndex()
        index.add(Document(0, "t", "rome rome paris"))
        index.add(Document(1, "t", "rome"))
        assert index.document_frequency("rome") == 2
        assert index.document_frequency("pari") == 1
        posting = index.postings("rome")[0]
        assert posting.term_frequency == 2

    def test_duplicate_id_rejected(self):
        index = InvertedIndex()
        index.add(Document(0, "a", "x"))
        with pytest.raises(ValueError):
            index.add(Document(0, "b", "y"))

    def test_doc_stats(self):
        index = InvertedIndex()
        index.add(Document(0, "", "alpha beta gamma"))
        index.add(Document(1, "", "alpha"))
        assert index.n_documents == 2
        assert index.average_doc_length == pytest.approx(2.0)

    def test_missing_term_empty_postings(self):
        index = InvertedIndex()
        assert index.postings("nothing") == []
        assert index.document_frequency("nothing") == 0


class TestBM25:
    def _make_index(self):
        index = InvertedIndex()
        index.add(Document(0, "", "rome capital italy"))
        index.add(Document(1, "", "paris capital france"))
        index.add(Document(2, "", "random filler text"))
        return index

    def test_rare_term_ranks_its_doc_first(self):
        ranker = BM25(self._make_index())
        top = ranker.top_k(analyze("rome italy"), k=3)
        assert top[0].doc_id == 0

    def test_idf_positive(self):
        ranker = BM25(self._make_index())
        for term in ["rome", "capit", "missing"]:
            assert ranker.idf(term) > 0

    def test_idf_decreases_with_df(self):
        ranker = BM25(self._make_index())
        assert ranker.idf("rome") > ranker.idf("capit")

    def test_parameter_validation(self):
        # Saturation is non-negative and length normalisation a fraction.
        assert K1 >= 0 and 0 <= B <= 1

    def test_score_monotone_in_tf(self):
        index = InvertedIndex()
        index.add(Document(0, "", "rome"))
        index.add(Document(1, "", "rome rome rome"))
        # the longer document's length penalty does not undo its extra tf
        ranker = BM25(index)
        scores = ranker.score_all(["rome"])
        assert scores[1] > scores[0]

    def test_top_k_truncates(self):
        ranker = BM25(self._make_index())
        assert len(ranker.top_k(analyze("capital"), k=1)) == 1


class TestSearchEngine:
    def test_known_fact_retrieval(self, engine):
        results = engine.search("capital of Italy")
        assert results
        assert "Italy" in results[0].document.title

    def test_all_facts_retrievable(self, engine):
        # Every KB fact should surface its own article in the top hits.
        for fact in FACTS:
            query = f"{fact.relation} {fact.subject}"
            titles = [r.document.title for r in engine.search(query, k=3)]
            assert any(fact.subject in title for title in titles), query

    def test_quoted_query_ranks_like_its_text(self, engine):
        def ranking(query):
            return [(r.document.doc_id, r.score) for r in engine.search(query)]

        assert ranking('"italy capital"') == ranking("italy capital")

    def test_empty_query(self, engine):
        assert engine.search("") == []

    def test_stopword_only_query(self, engine):
        assert engine.search("the of and is") == []

    @pytest.mark.parametrize("k", [0, -1, -25])
    def test_k_below_one_rejected(self, engine, k):
        with pytest.raises(QueryError):
            engine.search("capital of italy", k=k)

    def test_best_returns_top(self, engine):
        (best,) = engine.search("author Harry Potter", k=1)
        assert best.score == engine.search("author Harry Potter")[0].score

    def test_scores_descending(self, engine):
        results = engine.search("capital city river")
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    @settings(deadline=None, max_examples=20)
    @given(st.text(alphabet="abcdefghij ", max_size=30))
    def test_search_never_crashes(self, engine, text):
        results = engine.search(text)
        assert all(math.isfinite(r.score) for r in results)
