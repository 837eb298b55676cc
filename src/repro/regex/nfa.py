"""Thompson NFA construction from regex ASTs.

Each AST node compiles to a fragment with one start state and a set of
dangling out-arrows; fragments are patched together exactly as in Thompson's
construction (Ken Thompson, CACM 1968).  The resulting automaton has O(n)
states for an n-character pattern.  It is compile IR: :mod:`repro.regex.engine`
determinises it lazily and is the only matcher that runs in the library;
:func:`simulate` below is the plain set simulation, kept as the oracle the
tests and the ablation bench hold the engine to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

from repro.regex.ast import (
    WORD_RANGES,
    Alternate,
    AnyChar,
    Anchor,
    CharClass,
    Concat,
    Group,
    Literal,
    Node,
    Repeat,
)

#: Transition kinds.
EPSILON = "eps"
CHAR = "char"
CLASS = "class"
DOT = "dot"
ANCHOR_START = "start"
ANCHOR_END = "end"
ANCHOR_WORD = "word"
ANCHOR_NONWORD = "nonword"


@dataclass(eq=False)  # identity equality so states are hashable set members
class State:
    """One NFA state; ``transitions`` maps to (kind, payload, target)."""

    index: int
    transitions: List["Transition"] = field(default_factory=list, init=False)


@dataclass
class Transition:
    kind: str
    payload: object  # char for CHAR, CharClass for CLASS, None otherwise
    target: Optional[State] = None

    def consumes(self) -> bool:
        """True if taking this transition consumes one input character."""
        return self.kind in (CHAR, CLASS, DOT)

    def matches(self, char: str) -> bool:
        if self.kind == CHAR:
            return char == self.payload
        if self.kind == DOT:
            return char != "\n"
        if self.kind == CLASS:
            return self.payload.contains(char)
        return False


@dataclass
class Fragment:
    """A partially-built NFA: a start state plus dangling transitions."""

    start: State
    dangling: List[Transition]


class NFA:
    """A compiled automaton: entry state, accept state, and all states."""

    def __init__(self, start: State, accept: State, states: List[State]):
        self.start = start
        self.accept = accept
        self.states = states

    @property
    def size(self) -> int:
        return len(self.states)


class _Builder:
    def __init__(self) -> None:
        self.states: List[State] = []

    def new_state(self) -> State:
        state = State(index=len(self.states))
        self.states.append(state)
        return state

    def compile(self, node: Node) -> NFA:
        fragment = self._compile(node)
        accept = self.new_state()
        _patch(fragment.dangling, accept)
        return NFA(fragment.start, accept, self.states)

    def _compile(self, node: Node) -> Fragment:
        if isinstance(node, Literal):
            return self._leaf(CHAR, node.char)
        if isinstance(node, AnyChar):
            return self._leaf(DOT, None)
        if isinstance(node, CharClass):
            return self._leaf(CLASS, node)
        if isinstance(node, Anchor):
            kinds = {
                "start": ANCHOR_START,
                "end": ANCHOR_END,
                "word": ANCHOR_WORD,
                "nonword": ANCHOR_NONWORD,
            }
            return self._leaf(kinds[node.kind], None)
        if isinstance(node, Group):
            return self._compile(node.node)
        if isinstance(node, Concat):
            return self._concat(node)
        if isinstance(node, Alternate):
            return self._alternate(node)
        if isinstance(node, Repeat):
            return self._repeat(node)
        raise TypeError(f"unknown AST node: {node!r}")

    def _leaf(self, kind: str, payload: object) -> Fragment:
        state = self.new_state()
        transition = Transition(kind, payload)
        state.transitions.append(transition)
        return Fragment(state, [transition])

    def _concat(self, node: Concat) -> Fragment:
        if not node.parts:
            return self._epsilon_fragment()
        fragment = self._compile(node.parts[0])
        for part in node.parts[1:]:
            nxt = self._compile(part)
            _patch(fragment.dangling, nxt.start)
            fragment = Fragment(fragment.start, nxt.dangling)
        return fragment

    def _alternate(self, node: Alternate) -> Fragment:
        split = self.new_state()
        dangling: List[Transition] = []
        for option in node.options:
            fragment = self._compile(option)
            edge = Transition(EPSILON, None, fragment.start)
            split.transitions.append(edge)
            dangling.extend(fragment.dangling)
        return Fragment(split, dangling)

    def _repeat(self, node: Repeat) -> Fragment:
        # Expand {m,n} into m copies plus (n-m) optionals, or a Kleene tail.
        fragments: List[Fragment] = []
        for _ in range(node.min):
            fragments.append(self._compile(node.node))
        if node.max is None:
            fragments.append(self._star(node.node))
        else:
            for _ in range(node.max - node.min):
                fragments.append(self._optional(node.node))
        if not fragments:
            return self._epsilon_fragment()
        combined = fragments[0]
        for fragment in fragments[1:]:
            _patch(combined.dangling, fragment.start)
            combined = Fragment(combined.start, fragment.dangling)
        return combined

    def _star(self, inner: Node) -> Fragment:
        split = self.new_state()
        fragment = self._compile(inner)
        enter = Transition(EPSILON, None, fragment.start)
        leave = Transition(EPSILON, None)
        split.transitions.append(enter)
        split.transitions.append(leave)
        _patch(fragment.dangling, split)
        return Fragment(split, [leave])

    def _optional(self, inner: Node) -> Fragment:
        split = self.new_state()
        fragment = self._compile(inner)
        enter = Transition(EPSILON, None, fragment.start)
        skip = Transition(EPSILON, None)
        split.transitions.append(enter)
        split.transitions.append(skip)
        return Fragment(split, fragment.dangling + [skip])

    def _epsilon_fragment(self) -> Fragment:
        state = self.new_state()
        transition = Transition(EPSILON, None)
        state.transitions.append(transition)
        return Fragment(state, [transition])


def _patch(dangling: List[Transition], target: State) -> None:
    for transition in dangling:
        transition.target = target


def compile_nfa(node: Node) -> NFA:
    """Compile an AST into a Thompson NFA."""
    return _Builder().compile(node)


# -- stepping -----------------------------------------------------------------------

#: The characters ``\w`` matches.  ``\b`` and ``\B`` take word-ness from the
#: same set, so the class and the boundaries are one (ASCII, as SLRE) predicate.
WORD_CHARS = frozenset(chr(code) for lo, hi in WORD_RANGES for code in range(lo, hi + 1))


def closure(
    states: Iterable[State], at_start: bool, at_end: bool, at_boundary: bool
) -> Set[State]:
    """Epsilon-closure of ``states`` at a position with the given zero-width context."""
    stack = list(states)
    closed = set(stack)
    while stack:
        state = stack.pop()
        for transition in state.transitions:
            passable = (
                transition.kind == EPSILON
                or (transition.kind == ANCHOR_START and at_start)
                or (transition.kind == ANCHOR_END and at_end)
                or (transition.kind == ANCHOR_WORD and at_boundary)
                or (transition.kind == ANCHOR_NONWORD and not at_boundary)
            )
            if passable and transition.target is not None and transition.target not in closed:
                closed.add(transition.target)
                stack.append(transition.target)
    return closed


def advance(closed: Iterable[State], char: str) -> Set[State]:
    """The raw (pre-closure) states reached from ``closed`` by consuming ``char``."""
    return {
        transition.target
        for state in closed
        for transition in state.transitions
        if transition.consumes() and transition.matches(char)
    }


def simulate(nfa: NFA, text: str, start: int = 0) -> Optional[int]:
    """Reference matcher: end of the longest match beginning exactly at ``start``.

    One state set per character, rebuilt from scratch at every position —
    O(states) per character and nothing cached.
    """
    length = len(text)
    raw: Set[State] = {nfa.start}
    best: Optional[int] = None
    pos = start
    while True:
        before = pos > 0 and text[pos - 1] in WORD_CHARS
        after = pos < length and text[pos] in WORD_CHARS
        closed = closure(raw, pos == 0, pos == length, before != after)
        if nfa.accept in closed:
            best = pos
        if pos >= length:
            return best
        raw = advance(closed, text[pos])
        if not raw:
            return best
        pos += 1
