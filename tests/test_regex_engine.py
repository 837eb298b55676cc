"""Unit tests for the regex substrate (parser, NFA, engine).

The engine is a lazily built DFA; ``repro.regex.nfa.simulate`` — one NFA
state set per character, nothing cached — is the oracle it is held to here.
"""

import re
import sys
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import RegexSyntaxError
from repro.obs.context import use_tracer
from repro.obs.trace import Tracer
from repro.regex import Pattern, build_pattern_strings, build_sentences, engine
from repro.regex.ast import Alternate, CharClass, Concat, Literal, Repeat
from repro.regex.nfa import compile_nfa, simulate
from repro.regex.parser import parse


# -- the oracle: Pattern's public methods, written over ``simulate`` ------------------


def oracle_search(pattern_text, text, pos=0):
    """Leftmost-longest ``(start, end)`` at or after ``pos``, or None."""
    nfa = compile_nfa(parse(pattern_text))
    for start in range(pos, len(text) + 1):
        end = simulate(nfa, text, start)
        if end is not None:
            return start, end
    return None


def oracle_spans(pattern_text, text):
    """Non-overlapping leftmost-longest spans, left to right."""
    spans, pos = [], 0
    while pos <= len(text):
        span = oracle_search(pattern_text, text, pos)
        if span is None:
            break
        spans.append(span)
        pos = span[1] if span[1] > span[0] else span[0] + 1
    return spans


def span_of(match):
    return None if match is None else match.span()


class TestParser:
    def test_literal_sequence(self):
        node = parse("abc")
        assert isinstance(node, Concat)
        assert [part.char for part in node.parts] == ["a", "b", "c"]

    def test_alternation(self):
        node = parse("a|b|c")
        assert isinstance(node, Alternate)
        assert len(node.options) == 3

    def test_char_class_ranges(self):
        node = parse("[a-cx]")
        assert isinstance(node, CharClass)
        assert node.contains("b")
        assert node.contains("x")
        assert not node.contains("d")

    def test_negated_class(self):
        node = parse("[^0-9]")
        assert node.contains("a")
        assert not node.contains("5")

    def test_class_with_leading_bracket(self):
        # ']' immediately after '[' is a literal member.
        node = parse("[]a]")
        assert node.contains("]")
        assert node.contains("a")

    def test_brace_quantifier(self):
        node = parse("a{2,4}")
        assert isinstance(node, Repeat)
        assert (node.min, node.max) == (2, 4)

    def test_brace_exact(self):
        node = parse("a{3}")
        assert (node.min, node.max) == (3, 3)

    def test_brace_open_ended(self):
        node = parse("a{2,}")
        assert (node.min, node.max) == (2, None)

    def test_literal_brace_not_quantifier(self):
        node = parse("a{x}")
        assert isinstance(node, Concat)

    def test_escape_class(self):
        assert Pattern(r"\d+").fullmatch("12345")

    def test_unbalanced_paren_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("(ab")

    def test_stray_close_paren_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("ab)")

    def test_dangling_quantifier_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("*a")

    def test_reversed_range_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("[z-a]")

    def test_unterminated_class_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("[abc")

    def test_bad_interval_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("a{4,2}")


class TestMatching:
    def test_simple_search(self):
        match = Pattern("world").search("hello world")
        assert match is not None
        assert match.span() == (6, 11)

    def test_no_match_returns_none(self):
        assert Pattern("xyz").search("hello") is None

    def test_star_is_greedy(self):
        match = Pattern("a*").match("aaab")
        assert match.group() == "aaa"

    def test_plus_requires_one(self):
        assert Pattern("a+").search("bbb") is None
        assert Pattern("a+").search("bab").group() == "a"

    def test_optional(self):
        assert Pattern("colou?r").fullmatch("color")
        assert Pattern("colou?r").fullmatch("colour")

    def test_dot_excludes_newline(self):
        assert Pattern("a.b").search("a\nb") is None
        assert Pattern("a.b").search("axb")

    def test_anchors(self):
        pattern = Pattern("^abc$")
        assert pattern.fullmatch("abc")
        assert pattern.search("xabc") is None
        assert pattern.search("abcx") is None

    def test_start_anchor_mid_pattern(self):
        assert Pattern("^ab").search("zab") is None

    def test_end_anchor(self):
        assert Pattern(r"\?$").test("how many?")
        assert not Pattern(r"\?$").test("how? many")

    def test_alternation_longest(self):
        match = Pattern("ab|abc").match("abcd")
        assert match.group() == "abc"

    def test_interval_quantifier(self):
        pattern = Pattern("a{2,3}")
        assert pattern.fullmatch("aa")
        assert pattern.fullmatch("aaa")
        assert pattern.fullmatch("aaaa") is None
        assert pattern.search("a") is None

    def test_nested_groups(self):
        assert Pattern("(ab(c|d))+").fullmatch("abcabd")

    def test_word_boundary_free_classes(self):
        assert Pattern(r"[A-Z][a-z]+").search("in Italy now").group() == "Italy"

    def test_findall_non_overlapping(self):
        assert Pattern("aa").findall("aaaa") == ["aa", "aa"]

    def test_findall_with_empty_match_advances(self):
        # 'a*' matches empty at every position; must terminate.
        results = Pattern("a*").findall("ba")
        assert "a" in results

    def test_finditer_positions(self):
        spans = [m.span() for m in Pattern(r"\d+").finditer("a12b345c")]
        assert spans == [(1, 3), (4, 7)]

    def test_count(self):
        assert Pattern("is").count("this is his") == 3

    def test_leftmost_longest_search(self):
        match = Pattern("a+").search("baaa")
        assert match.span() == (1, 4)

    def test_fullmatch_rejects_partial(self):
        assert Pattern("abc").fullmatch("abcd") is None

    def test_escaped_metachars(self):
        assert Pattern(r"\$\d+\.\d\d").search("cost $12.50 total").group() == "$12.50"

    def test_case_sensitive(self):
        assert Pattern("Who").test("Who was") is True
        assert Pattern("Who").test("who was") is False

    def test_no_catastrophic_backtracking(self):
        # Classic exponential-blowup pattern for backtrackers; the NFA
        # simulation must finish instantly.
        pattern = Pattern("(a|a)*c$")
        assert pattern.search("a" * 40 + "b") is None

    def test_match_at_offset(self):
        match = Pattern("bc").match("abcd", pos=1)
        assert match is not None and match.group() == "bc"

    def test_state_count_linear(self):
        assert Pattern("abcde").state_count < 30

    def test_boundaries_and_word_class_share_one_predicate(self):
        # \w is ASCII (SLRE), so 'é' is a non-word character for \b too:
        # the boundary falls after "caf".  With a Unicode \b there was no
        # boundary anywhere inside "café" that \w+ could reach.
        assert Pattern(r"\w+\b").findall("café x") == ["caf", "x"]
        assert Pattern(r"\bx").test("éx")
        assert not Pattern(r"\Bx").test("éx")

    def test_match_past_the_end_is_none(self):
        assert Pattern("a*").match("aa", pos=2).span() == (2, 2)
        assert Pattern("a*").match("aa", pos=3) is None
        assert Pattern("a*").search("aa", pos=3) is None

    def test_pickle_round_trip_recompiles(self):
        import pickle

        pattern = Pattern(r"\b\d+(th|st|nd|rd)\b")
        pattern.test("the 44th president")  # a warm cache and a lock stay behind
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone.pattern == pattern.pattern
        assert clone.findall("1st and 22nd") == ["1st", "22nd"]


# -- differential tests ---------------------------------------------------------------

_ATOMS = [
    "a", "b", "1", " ", "_", "-", ".", r"\d", r"\w", r"\s", r"\W", r"\D",
    "[a-b]", "[^a]", "[1_ ]", "^", "$", r"\b", r"\B",
]
_QUANTIFIERS = ["*", "+", "?", "{2}", "{1,2}", "{2,}"]
_ZERO_WIDTH = {"^", "$", r"\b", r"\B"}


def _quantified(inner):
    return st.tuples(inner, st.sampled_from(_QUANTIFIERS)).map(
        lambda pair: (pair[0] if pair[0] in _ZERO_WIDTH else f"({pair[0]}){pair[1]}")
    )


#: Pattern strings over the whole supported syntax.
PATTERNS = st.recursive(
    st.sampled_from(_ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("".join),
        st.tuples(inner, inner).map(lambda pair: f"({pair[0]}|{pair[1]})"),
        _quantified(inner),
    ),
    max_leaves=6,
)
TEXTS = st.text(alphabet="ab1 _-\né", max_size=12)
#: No newline ('$' also matches before a trailing one in ``re``), ASCII only.
RE_TEXTS = st.text(alphabet="ab1 _-", max_size=12)


class TestAgainstTheOracle:
    @settings(deadline=None, max_examples=300)
    @given(pattern_text=PATTERNS, text=TEXTS, pos=st.integers(0, 12))
    def test_every_public_method(self, pattern_text, text, pos):
        pos = min(pos, len(text))
        pattern = Pattern(pattern_text)
        nfa = compile_nfa(parse(pattern_text))
        spans = oracle_spans(pattern_text, text)
        assert span_of(pattern.search(text, pos)) == oracle_search(pattern_text, text, pos)
        assert [m.span() for m in pattern.finditer(text)] == spans
        assert pattern.findall(text) == [text[a:b] for a, b in spans]
        assert pattern.count(text) == len(spans)
        assert pattern.test(text) == bool(spans)
        end = simulate(nfa, text, pos)
        assert span_of(pattern.match(text, pos)) == (None if end is None else (pos, end))
        full = simulate(nfa, text, 0) == len(text)
        assert span_of(pattern.fullmatch(text)) == ((0, len(text)) if full else None)
        # And again on the now-warm cache.
        assert [m.span() for m in pattern.finditer(text)] == spans

    @pytest.mark.parametrize("pattern_text", build_pattern_strings(100)[:25])
    def test_input_set_spans(self, pattern_text):
        pattern = Pattern(pattern_text)
        for sentence in build_sentences(20):
            assert [m.span() for m in pattern.finditer(sentence)] == oracle_spans(
                pattern_text, sentence
            ), (pattern_text, sentence)


class TestAgainstStdlibRe:
    """``re`` is leftmost-first; it must agree wherever that cannot matter."""

    @settings(deadline=None, max_examples=300)
    @given(pattern_text=PATTERNS, text=RE_TEXTS, pos=st.integers(0, 12))
    def test_existence_and_leftmost_start(self, pattern_text, text, pos):
        # Before Python 3.14, ``re``'s \B never matches in an empty string.
        assume(text or r"\B" not in pattern_text)
        pos = min(pos, len(text))
        pattern = Pattern(pattern_text)
        stdlib = re.compile(pattern_text, re.ASCII)
        found = stdlib.search(text, pos)
        ours = pattern.search(text, pos)
        assert (ours is None) == (found is None)
        if found is not None:
            assert ours.start == found.start()
            assert len(ours) >= found.end() - found.start()  # longest, not first
        assert (pattern.match(text, pos) is None) == (stdlib.match(text, pos) is None)
        assert (pattern.fullmatch(text) is None) == (stdlib.fullmatch(text) is None)

    @settings(deadline=None, max_examples=200)
    @given(
        pattern_text=st.sampled_from(
            # No alternation or optional part whose order could pick a shorter match.
            [
                r"a+b", r"\bab\b", r"[0-9]{2}", r"\w+", r"\d+\b", r"a.b", r"\s[a-b]+\s",
                r"^a+", r"b+$", r"\Ba", r"[^a ]+", r"\b\w+ly\b", r"-+_",
            ]
        ),
        text=st.text(alphabet="ab1 _-ly", max_size=20),
    )
    def test_spans_where_first_is_longest(self, pattern_text, text):
        expected = [m.span() for m in re.finditer(pattern_text, text, re.ASCII)]
        assert [m.span() for m in Pattern(pattern_text).finditer(text)] == expected


# -- the cache: bound, reset, threads, counters ----------------------------------------

_YEARS = r"\b(1[0-9]{3}|20[0-9]{2})\b"


def all_spans(pattern, texts):
    return [[m.span() for m in pattern.finditer(text)] for text in texts]


def traced_count_work(pattern, texts):
    tracer = Tracer(seed=1)
    with use_tracer(tracer), tracer.trace(0), tracer.span("count"):
        hits = sum(pattern.count(text) for text in texts)
    attributes = next(s.attributes for s in tracer.spans if s.name == "count")
    return hits, {key: attributes[key] for key in ("flops", "bytes", "items", "invocations")}


class TestLazyCache:
    def test_grows_lazily_and_is_reused(self):
        pattern = Pattern(_YEARS)
        assert pattern._dfa.transitions == 0  # nothing is built at compile time
        pattern.count("in 1969 and 2001")
        built = pattern._dfa.transitions
        assert built > 0
        pattern.count("in 1969 and 2001")
        assert pattern._dfa.transitions == built

    def test_a_scan_that_crosses_a_reset_equals_the_oracle(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_CACHED_TRANSITIONS", 5)
        sentences = build_sentences(30)
        pattern = Pattern(_YEARS)
        first_generation = pattern._dfa
        assert all_spans(pattern, sentences) == [oracle_spans(_YEARS, s) for s in sentences]
        assert pattern._dfa is not first_generation
        assert pattern._dfa.transitions <= 5
        # Every generation was bounded, including the ones already dropped.
        assert first_generation.transitions == 5

    @pytest.mark.parametrize("bound", [engine.MAX_CACHED_TRANSITIONS, 7])
    def test_eight_threads_on_one_fresh_pattern(self, monkeypatch, bound):
        monkeypatch.setattr(engine, "MAX_CACHED_TRANSITIONS", bound)
        sentences = build_sentences(60)
        serial = all_spans(Pattern(_YEARS), sentences)
        assert serial == [oracle_spans(_YEARS, s) for s in sentences]
        shared = Pattern(_YEARS)
        barrier = threading.Barrier(8)
        results = [None] * 8

        def hammer(slot):
            barrier.wait()
            results[slot] = all_spans(shared, sentences[slot:] + sentences[:slot])

        threads = [threading.Thread(target=hammer, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads every few bytecodes, not every 5 ms
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot, spans in enumerate(results):
            assert spans == serial[slot:] + serial[:slot], slot

    def test_work_counters_do_not_depend_on_the_cache(self, monkeypatch):
        sentences = build_sentences(40)
        pattern = Pattern(_YEARS)
        cold = traced_count_work(pattern, sentences)
        warm = traced_count_work(pattern, sentences)
        assert cold == warm
        monkeypatch.setattr(engine, "MAX_CACHED_TRANSITIONS", 5)
        assert traced_count_work(Pattern(_YEARS), sentences) == cold
        hits, work = cold
        # One record per search: a count makes one search per match and a last one that fails.
        assert work["items"] == work["invocations"] == hits + len(sentences)
        # NFA-equivalent work: every examined position is charged state_count tests.
        assert work["flops"] == work["bytes"] * pattern.state_count


class TestInputSet:
    def test_pattern_set_size(self):
        assert len(build_pattern_strings()) == 100

    def test_all_patterns_compile(self):
        for text in build_pattern_strings():
            Pattern(text)

    def test_sentences_deterministic(self):
        assert build_sentences(50) == build_sentences(50)

    def test_sentence_count(self):
        assert len(build_sentences()) == 400

    def test_patterns_hit_sentences(self):
        from repro.regex.patterns import build_patterns, match_all

        patterns = build_patterns(20)
        sentences = build_sentences(50)
        assert match_all(patterns, sentences) > 0
