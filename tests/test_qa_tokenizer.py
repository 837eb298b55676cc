"""Tests for tokenization utilities."""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.qa.tokenizer import (
    remove_stopwords,
    sentences,
    tokenize,
    tokenize_keep_case,
)


def oracle_tokenize(text: str, lower: bool = True) -> List[str]:
    """The per-character loop ``tokenize`` and ``tokenize_keep_case`` replaced."""
    tokens: List[str] = []
    current: List[str] = []
    for char in text:
        if char.isalnum() or (char in "'-" and current):
            current.append(char.lower() if lower else char)
        else:
            if current:
                tokens.append("".join(current).strip("'-"))
                current = []
    if current:
        tokens.append("".join(current).strip("'-"))
    return [token for token in tokens if token]


#: Text the translate table must get right: case-mapping oddities (``İ``
#: lower-cases to two characters, ``Σ`` and ``ß`` are letters outside ASCII),
#: a control character ``str.split`` treats as whitespace, and apostrophes and
#: hyphens at the edges of words and doubled inside them.
TOKEN_TEXTS = st.one_of(
    st.text(alphabet=st.sampled_from(list("aZ9 İΣßé\x1c'-.,?\t")), max_size=30),
    st.text(max_size=30),
)


class TestTokenizeEqualsTheCharacterLoop:
    @settings(max_examples=400, deadline=None)
    @given(TOKEN_TEXTS)
    def test_tokenize(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @settings(max_examples=400, deadline=None)
    @given(TOKEN_TEXTS)
    def test_tokenize_keep_case(self, text):
        assert tokenize_keep_case(text) == oracle_tokenize(text, lower=False)

    @pytest.mark.parametrize(
        "text",
        [
            "İstanbul ΣΟΦΙΑ straße",
            "a\x1cb",
            "''quoted'' --dash-- o''clock forty--four",
            "'- -' '' -- x'-",
            "",
        ],
    )
    def test_named_cases(self, text):
        assert tokenize(text) == oracle_tokenize(text)
        assert tokenize_keep_case(text) == oracle_tokenize(text, lower=False)


class TestTokenize:
    def test_basic_question(self):
        assert tokenize("Who was elected 44th president?") == [
            "who", "was", "elected", "44th", "president",
        ]

    def test_strips_punctuation(self):
        assert tokenize("hello, world!") == ["hello", "world"]

    def test_keeps_internal_apostrophe(self):
        assert tokenize("o'clock") == ["o'clock"]

    def test_keeps_internal_hyphen(self):
        assert tokenize("forty-four") == ["forty-four"]

    def test_strips_edge_apostrophes(self):
        assert tokenize("'quoted'") == ["quoted"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("   \t\n ") == []

    def test_keep_case_variant(self):
        assert tokenize_keep_case("Barack Obama") == ["Barack", "Obama"]

    def test_numbers_survive(self):
        assert tokenize("in 1969 there") == ["in", "1969", "there"]


class TestSentences:
    def test_splits_on_terminators(self):
        parts = sentences("First one. Second one? Third!")
        assert parts == ["First one.", "Second one?", "Third!"]

    def test_abbreviation_period_not_followed_by_space(self):
        # "3.14" should not split because '.' is not followed by whitespace.
        assert sentences("pi is 3.14 exactly.") == ["pi is 3.14 exactly."]

    def test_trailing_fragment_kept(self):
        assert sentences("Done. trailing words") == ["Done.", "trailing words"]

    def test_empty(self):
        assert sentences("") == []


class TestStopwordsAndNgrams:
    def test_remove_stopwords(self):
        tokens = tokenize("what is the capital of Italy")
        assert remove_stopwords(tokens) == ["capital", "italy"]

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=80))
    def test_tokenize_outputs_lowercase_alnum(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert any(c.isalnum() for c in token)
