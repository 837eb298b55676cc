"""Lazy-DFA regex engine with a ``re``-like convenience API.

Semantics are leftmost-longest: :meth:`Pattern.search` returns the match that
starts earliest and, among those, extends furthest.  The Thompson NFA
(:mod:`repro.regex.nfa`) is determinised on demand (RE2-style subset
construction): a DFA state is a raw, pre-closure NFA state set plus the two
bits of left context the zero-width assertions need — is this position 0,
was the previous character a word character — and the right-hand side of
``\\b``/``\\B`` is resolved when the next character (or the end of input)
is known.  Every start position is tried with a run *anchored* there, so a
run dies exactly where the NFA's state set would empty: spans, match ends and
the number of characters examined are those of the set simulation
(:func:`repro.regex.nfa.simulate`), whatever the cache holds.  A search skips
the starts whose character no first step of the pattern consumes in one
``str.translate`` and ``str.find`` pass, and charges each the two positions its
run would have examined.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.obs.counters import record_work
from repro.regex.nfa import (
    CLASS,
    DOT,
    NFA,
    WORD_CHARS,
    State,
    Transition,
    advance,
    closure,
    compile_nfa,
)
from repro.regex.parser import parse

#: Transitions one pattern's DFA may cache.  A miss on a full cache throws the
#: table away and starts a new one from the state in hand (RE2's policy);
#: about 100 bytes a transition, so at most ~0.4 MB a pattern.
MAX_CACHED_TRANSITIONS = 4096

#: ``(raw NFA states, at position 0, previous character is a word character)``
_StateKey = Tuple[FrozenSet[State], bool, bool]
#: ``(next state or -1 when the run dies, a match ends before this character)``
_Transition = Tuple[int, bool]


class _Dfa:
    """One generation of a pattern's transition table; grows under ``Pattern._lock``.

    State ids index ``keys``, ``rows`` and ``ends`` and mean nothing in another
    generation — except 0, 1 and 2, which every generation gives to the states
    a run begins in: at position 0, after a non-word character, after a word
    character.  Any other row is only reached through an id read from a cached
    transition, and that transition is stored after the row exists, so readers
    take no lock.
    """

    def __init__(self, nfa: NFA):
        self.nfa = nfa
        self.ids: Dict[_StateKey, int] = {}
        self.keys: List[_StateKey] = []
        self.rows: List[Dict[str, _Transition]] = []
        self.ends: List[bool] = []  # does a match end here, at end of input
        self.transitions = 0
        start = frozenset({nfa.start})
        for at_start, prev_word in ((True, False), (False, False), (False, True)):
            self.intern((start, at_start, prev_word))

    def intern(self, key: _StateKey) -> int:
        state = self.ids.get(key)
        if state is None:
            raw, at_start, prev_word = key
            state = self.ids[key] = len(self.keys)
            self.keys.append(key)
            # At end of input the right side of a boundary is a non-word.
            self.ends.append(self.nfa.accept in closure(raw, at_start, True, prev_word))
            self.rows.append({})
        return state

    def build(self, state: int, char: str) -> _Transition:
        raw, at_start, prev_word = self.keys[state]
        is_word = char in WORD_CHARS
        closed = closure(raw, at_start, False, prev_word != is_word)
        moved = advance(closed, char)
        target = self.intern((frozenset(moved), False, is_word)) if moved else -1
        transition = self.rows[state][char] = (target, self.nfa.accept in closed)
        self.transitions += 1
        return transition


class _FirstChars(dict):
    """``str.translate`` table: ``"1"`` for a character a first step consumes, else ``"0"``.

    ASCII is decided when the table is built, any other character on its
    first visit, and kept.
    """

    def __init__(self, steps: List[Transition]):
        super().__init__()
        self.steps = steps
        for code in range(128):
            self.__missing__(code)

    def __missing__(self, code: int) -> str:
        char = chr(code)
        mark = self[code] = "1" if any(step.matches(char) for step in self.steps) else "0"
        return mark


def first_char_table(nfa: NFA) -> Optional[_FirstChars]:
    """The start-skipping table of a search over ``nfa``, or ``None`` when there is none.

    The first steps are the consuming transitions out of the start state's
    closure in every start context — at position 0 or not, with a boundary
    before the next character or not, so both sides of ``\\b``/``\\B``.  A
    run anchored before a character none of them consumes reads it, dies and
    matches nothing, provided the pattern cannot match empty; a pattern that
    can, in any context, gets ``None``.  So does one whose first step is
    ``.`` or a negated class, which nearly every character begins.
    """
    steps: List[Transition] = []
    for at_start, at_end, at_boundary in itertools.product((True, False), repeat=3):
        closed = closure({nfa.start}, at_start, at_end, at_boundary)
        if nfa.accept in closed:
            return None
        if not at_end:
            steps.extend(t for state in closed for t in state.transitions if t.consumes())
    if any(step.kind == DOT or (step.kind == CLASS and step.payload.negated) for step in steps):
        return None
    return _FirstChars(steps)


@dataclass(frozen=True)
class Match:
    """A successful match: the span [start, end) and the matched text."""

    start: int
    end: int
    text: str

    def group(self) -> str:
        return self.text[self.start : self.end]

    def span(self) -> tuple:
        return (self.start, self.end)

    def __len__(self) -> int:
        return self.end - self.start


class Pattern:
    """A compiled regular expression.

    >>> Pattern(r"w(ha|he)[rnt]e?").search("somewhere").group()
    'where'
    """

    def __init__(self, pattern: str):
        self.pattern = pattern
        self._nfa: NFA = compile_nfa(parse(pattern))
        self._lock = threading.Lock()
        self._dfa = _Dfa(self._nfa)

    def __reduce__(self):
        # Recompile on the other side; the lock and the cache stay with their owner.
        return (Pattern, (self.pattern,))

    @cached_property
    def _first_chars(self) -> Optional[_FirstChars]:
        # Built on the first search, like the DFA: nothing is built at compile time.
        return first_char_table(self._nfa)

    # -- the matcher --------------------------------------------------------------

    def _extend(self, dfa: _Dfa, state: int, char: str) -> Tuple[_Dfa, _Transition]:
        """Cache miss: build ``rows[state][char]``, in a new generation if ``dfa`` is full."""
        with self._lock:
            transition = dfa.rows[state].get(char)  # another thread may have built it
            if transition is None:
                if dfa.transitions >= MAX_CACHED_TRANSITIONS:
                    key = dfa.keys[state]
                    dfa = self._dfa = _Dfa(self._nfa)
                    state = dfa.intern(key)
                transition = dfa.build(state, char)
        return dfa, transition

    def _scan(self, text: str, first: int, last: int, searches: int) -> Tuple[int, int]:
        """Leftmost-longest match starting in ``[first, last]``: ``(start, end)`` or ``(-1, -1)``.

        Both bounds are clamped to ``[0, len(text)]``, as ``re`` clamps ``pos``.
        ``searches`` is how many Table 4 work items (whole-text searches) this scan is.
        """
        # One generation per scan: a reset or another thread's miss never mixes state ids.
        dfa = self._dfa
        rows = dfa.rows
        length = len(text)
        first = min(max(first, 0), length)
        last = min(max(last, 0), length)
        examined = 0
        found = end = -1
        table = self._first_chars if first < last else None
        marks = text.translate(table) if table is not None else None
        prev_word = first > 0 and text[first - 1] in WORD_CHARS
        start = first
        while start <= last:
            if marks is not None:
                # A start before the next live character dies on its first
                # character: its run would examine that position and the next.
                skip_to = marks.find("1", start, last)
                if skip_to < 0:
                    skip_to = last
                if skip_to > start:
                    examined += 2 * (skip_to - start)
                    start = skip_to
                    prev_word = text[start - 1] in WORD_CHARS
            state = 1 + prev_word if start else 0
            pos = start
            while pos < length:
                char = text[pos]
                transition = rows[state].get(char)
                if transition is None:
                    dfa, transition = self._extend(dfa, state, char)
                    rows = dfa.rows
                state, accepted = transition
                if accepted:
                    end = pos
                pos += 1
                if state < 0:
                    break
            else:
                if dfa.ends[state]:
                    end = pos
            examined += pos - start + 1
            if end >= 0:
                found = start
                break
            if start < length:
                prev_word = text[start] in WORD_CHARS
            start += 1
        # Counter model (branchy string kernel): NFA-equivalent work.  A run
        # anchored at ``start`` stops where the NFA's state set would empty, so
        # it examines the same positions, and each is charged O(NFA size)
        # transition tests — one "op" per (position, state) pair; bytes are the
        # 1-byte characters read.  A cached transition or a skipped start is
        # charged like a run: the counter is the kernel's demand, not the
        # cache's hit rate.
        record_work(flops=examined * self._nfa.size, mem_bytes=examined, items=searches)
        return found, end

    # -- public API -----------------------------------------------------------

    def match(self, text: str) -> Optional[Match]:
        """Match anchored at the start; returns the longest such match or None."""
        start, end = self._scan(text, 0, 0, searches=0)
        return Match(start, end, text) if start >= 0 else None

    def fullmatch(self, text: str) -> Optional[Match]:
        """Match that must consume the entire text."""
        # The longest match at 0 is the full one whenever a full match exists.
        match = self.match(text)
        return match if match is not None and match.end == len(text) else None

    def search(self, text: str, pos: int = 0) -> Optional[Match]:
        """Leftmost-longest match anywhere at or after ``pos``."""
        # One (pattern, text) search is the regex kernel's Table 4 work item.
        start, end = self._scan(text, pos, len(text), searches=1)
        return Match(start, end, text) if start >= 0 else None

    def finditer(self, text: str) -> Iterator[Match]:
        """Non-overlapping leftmost-longest matches, left to right."""
        pos = 0
        length = len(text)
        while pos <= length:
            match = self.search(text, pos)
            if match is None:
                return
            yield match
            # Empty matches must still advance the scan position.
            pos = match.end if match.end > match.start else match.start + 1

    def findall(self, text: str) -> List[str]:
        return [match.group() for match in self.finditer(text)]

    def test(self, text: str) -> bool:
        """True if the pattern matches anywhere in ``text``."""
        return self.search(text) is not None

    def count(self, text: str) -> int:
        """Number of non-overlapping matches in ``text``."""
        return sum(1 for _ in self.finditer(text))

    def __repr__(self) -> str:
        return f"Pattern({self.pattern!r})"


def compile(pattern: str) -> Pattern:  # noqa: A001 - mirrors ``re.compile``
    """Compile ``pattern`` into a reusable :class:`Pattern`."""
    return Pattern(pattern)


def search(pattern: str, text: str) -> Optional[Match]:
    return Pattern(pattern).search(text)


def findall(pattern: str, text: str) -> List[str]:
    return Pattern(pattern).findall(text)
