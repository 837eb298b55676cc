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
(:func:`repro.regex.nfa.simulate`), whatever the cache holds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.obs.counters import record_work
from repro.regex.nfa import NFA, WORD_CHARS, State, advance, closure, compile_nfa
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

    @property
    def state_count(self) -> int:
        """Number of NFA states (proportional to pattern length)."""
        return self._nfa.size

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

        ``searches`` is how many Table 4 work items (whole-text searches) this scan is.
        """
        # One generation per scan: a reset or another thread's miss never mixes state ids.
        dfa = self._dfa
        rows = dfa.rows
        length = len(text)
        examined = 0
        found = end = -1
        prev_word = 0 < first <= length and text[first - 1] in WORD_CHARS
        for start in range(first, min(last, length) + 1):
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
        # Counter model (branchy string kernel): NFA-equivalent work.  A run
        # anchored at ``start`` stops where the NFA's state set would empty, so
        # it examines the same positions, and each is charged O(state_count)
        # transition tests — one "op" per (position, state) pair; bytes are the
        # 1-byte characters read.  A cached transition is charged like a built
        # one: the counter is the kernel's demand, not the cache's hit rate.
        record_work(flops=examined * self._nfa.size, mem_bytes=examined, items=searches)
        return found, end

    # -- public API -----------------------------------------------------------

    def match(self, text: str, pos: int = 0) -> Optional[Match]:
        """Match anchored at ``pos``; returns the longest such match or None."""
        start, end = self._scan(text, pos, pos, searches=0)
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
