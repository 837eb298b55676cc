"""Containment tests (``Pattern.test``) for the lazy DFA, with NFA differential checks.

These were the tests of ``DfaPattern``, the containment-only DFA that lived
beside the engine; every case now runs against ``Pattern.test``, and the
differential ones against the ``nfa.simulate`` oracle.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.regex import Pattern, build_pattern_strings, build_sentences
from tests.test_regex_engine import oracle_search


class TestDfaBasics:
    def test_simple_containment(self):
        assert Pattern("world").test("hello world")
        assert not Pattern("world").test("hello wor ld")

    def test_empty_text(self):
        assert Pattern("a*").test("")
        assert not Pattern("a+").test("")

    def test_anchors(self):
        assert Pattern("^abc").test("abcdef")
        assert not Pattern("^abc").test("xabc")
        assert Pattern("xyz$").test("wxyz")
        assert not Pattern("xyz$").test("xyzw")

    def test_full_anchored(self):
        pattern = Pattern("^ab$")
        assert pattern.test("ab")
        assert not pattern.test("aab")
        assert not pattern.test("abb")

    def test_word_boundaries(self):
        pattern = Pattern(r"\bcat\b")
        assert pattern.test("the cat sat")
        assert pattern.test("cat")
        assert pattern.test("a cat!")
        assert not pattern.test("concatenate")
        assert not pattern.test("cats")

    def test_non_word_boundary(self):
        pattern = Pattern(r"\Bcat")
        assert pattern.test("concatenate")
        assert not pattern.test("the cat")

    def test_trailing_boundary_at_end(self):
        assert Pattern(r"\d+\b").test("year 1969")
        assert Pattern(r"\d+\b").test("1969")

    def test_classes_and_quantifiers(self):
        assert Pattern(r"[a-c]{2,3}x").test("zzabx")
        assert not Pattern(r"[a-c]{2,3}x").test("zax")

    def test_alternation(self):
        pattern = Pattern("cat|dog|bird")
        assert pattern.test("hotdog stand")
        assert not pattern.test("cow")

    def test_count_matching(self):
        pattern = Pattern(r"\d+")
        assert sum(pattern.test(text) for text in ["a1", "b", "22", "x"]) == 2

    def test_dfa_grows_lazily(self):
        pattern = Pattern("abc")
        before = len(pattern._dfa.rows)
        pattern.test("xxabcxx")
        assert len(pattern._dfa.rows) > before

    def test_transition_cache_reused(self):
        pattern = Pattern(r"\b(19|20)\d\d\b")
        pattern.test("in 1969 and 2001")
        size_after_first = len(pattern._dfa.rows)
        pattern.test("in 1984 and 2015")  # same character classes
        assert len(pattern._dfa.rows) <= size_after_first + 2


class TestDfaAgainstNfa:
    @pytest.mark.parametrize("pattern_text", build_pattern_strings(100)[:25])
    def test_input_set_patterns_agree(self, pattern_text):
        dfa = Pattern(pattern_text)
        for sentence in build_sentences(40):
            expected = oracle_search(pattern_text, sentence) is not None
            assert dfa.test(sentence) == expected, (pattern_text, sentence)

    @settings(deadline=None, max_examples=150)
    @given(
        pattern=st.sampled_from(
            [
                r"a+b", r"(ab|ba)+", r"\bword\b", r"[0-9]{2}", r"^x|y$",
                r"\w+\d", r"a.c", r"z?z?z", r"\s[a-m]+\s",
            ]
        ),
        text=st.text(alphabet="abwordxyz 019.", max_size=25),
    )
    def test_random_texts_agree(self, pattern, text):
        assert Pattern(pattern).test(text) == (oracle_search(pattern, text) is not None)

    @settings(deadline=None, max_examples=100)
    @given(text=st.text(alphabet="ab cat!s", max_size=20))
    def test_boundary_pattern_matches_stdlib(self, text):
        ours = Pattern(r"\bcat\b").test(text)
        stdlib = re.search(r"\bcat\b", text) is not None
        assert ours == stdlib
