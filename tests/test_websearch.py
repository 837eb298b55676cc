"""Tests for the web-search substrate: corpus, index, BM25, engine."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.websearch import (
    BM25,
    Corpus,
    Document,
    FACTS,
    InvertedIndex,
    SearchEngine,
    analyze,
)


@pytest.fixture(scope="module")
def engine():
    return SearchEngine.with_default_corpus()


class TestCorpus:
    def test_deterministic(self):
        a = Corpus(seed=1)
        b = Corpus(seed=1)
        assert [d.text for d in a] == [d.text for d in b]

    def test_seed_changes_content(self):
        a = Corpus(seed=1)
        b = Corpus(seed=2)
        assert [d.text for d in a] != [d.text for d in b]

    def test_size(self):
        corpus = Corpus(documents_per_fact=2, n_noise_docs=10)
        assert len(corpus) == 2 * len(FACTS) + 10

    def test_fact_docs_contain_answer(self):
        corpus = Corpus(documents_per_fact=1, n_noise_docs=0)
        for document in corpus:
            answer = corpus.answer_for_doc(document.doc_id)
            assert answer is not None
            # The assertion sentence embeds the answer verbatim.
            assert answer.split()[0].lower() in document.text.lower()

    def test_noise_docs_have_no_answer(self):
        corpus = Corpus(documents_per_fact=1, n_noise_docs=5)
        noise_ids = [d.doc_id for d in corpus][-5:]
        assert all(corpus.answer_for_doc(i) is None for i in noise_ids)

    def test_fact_for_question(self):
        corpus = Corpus()
        fact = corpus.fact_for_question("What is the capital of Italy?")
        assert fact is not None and fact.answer == "Rome"

    def test_fact_for_unrelated_question(self):
        corpus = Corpus()
        assert corpus.fact_for_question("zzz qqq xxx") is None


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
        with pytest.raises(ValueError):
            BM25(self._make_index(), k1=-1)
        with pytest.raises(ValueError):
            BM25(self._make_index(), b=2)

    def test_score_monotone_in_tf(self):
        index = InvertedIndex()
        index.add(Document(0, "", "rome"))
        index.add(Document(1, "", "rome rome rome"))
        # pad both docs to the same length so only tf differs
        ranker = BM25(index, b=0.0)
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

    def test_empty_query(self, engine):
        assert engine.search("") == []

    def test_stopword_only_query(self, engine):
        assert engine.search("the of and is") == []

    def test_best_returns_top(self, engine):
        best = engine.best("author Harry Potter")
        assert best is not None
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
