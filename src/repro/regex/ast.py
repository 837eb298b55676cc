"""Abstract syntax tree for the regex substrate.

The Sirius QA service uses a lightweight regular-expression library (SLRE in
the paper) to match question words and filter retrieved documents.  This
package is a from-scratch replacement: patterns are parsed into the AST nodes
below, compiled to a Thompson NFA (:mod:`repro.regex.nfa`), and executed by a
lazily built DFA over it (:mod:`repro.regex.engine`) whose cache misses cost
O(len(pattern)) each, so a scan never exceeds O(len(pattern) * len(text)) per
start position and there is no backtracking blowup.

Supported syntax: literals, ``.``, escapes (``\\d \\D \\w \\W \\s \\S`` and
escaped metacharacters), character classes ``[a-z0-9]`` / ``[^...]``, anchors
``^`` and ``$``, quantifiers ``* + ?`` and ``{m}``/``{m,}``/``{m,n}``,
alternation ``|``, and grouping ``( ... )`` (non-capturing semantics; the
engine reports the overall match span).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Node:
    """Base class for AST nodes."""


@dataclass(frozen=True)
class Literal(Node):
    """Match exactly one character."""

    char: str


@dataclass(frozen=True)
class AnyChar(Node):
    """``.`` — match any character except newline."""


@dataclass(frozen=True)
class CharClass(Node):
    """``[...]`` — a set of ranges, possibly negated.

    ``ranges`` holds inclusive ``(lo, hi)`` codepoint pairs; single characters
    are stored as ``(c, c)``.
    """

    ranges: Tuple[Tuple[int, int], ...]
    negated: bool = False

    def contains(self, char: str) -> bool:
        code = ord(char)
        inside = any(lo <= code <= hi for lo, hi in self.ranges)
        return inside != self.negated


@dataclass(frozen=True)
class Anchor(Node):
    """``^`` (kind='start') or ``$`` (kind='end')."""

    kind: str


@dataclass(frozen=True)
class Concat(Node):
    """Sequence of nodes matched one after another."""

    parts: Tuple[Node, ...]


@dataclass(frozen=True)
class Alternate(Node):
    """``a|b|c`` — ordered alternation."""

    options: Tuple[Node, ...]


@dataclass(frozen=True)
class Repeat(Node):
    """Quantified node: ``min`` to ``max`` repetitions (``max=None`` = inf)."""

    node: Node
    min: int
    max: int | None  # None means unbounded

    def __post_init__(self) -> None:
        if self.min < 0:
            raise ValueError("Repeat.min must be >= 0")
        if self.max is not None and self.max < self.min:
            raise ValueError("Repeat.max must be >= Repeat.min")


@dataclass(frozen=True)
class Group(Node):
    """Parenthesized subexpression."""

    node: Node
    index: int = 0


#: Predefined escape classes, shared by the parser.
DIGIT_RANGES: Tuple[Tuple[int, int], ...] = ((ord("0"), ord("9")),)
WORD_RANGES: Tuple[Tuple[int, int], ...] = (
    (ord("a"), ord("z")),
    (ord("A"), ord("Z")),
    (ord("0"), ord("9")),
    (ord("_"), ord("_")),
)
SPACE_RANGES: Tuple[Tuple[int, int], ...] = (
    (ord(" "), ord(" ")),
    (ord("\t"), ord("\t")),
    (ord("\n"), ord("\n")),
    (ord("\r"), ord("\r")),
    (ord("\f"), ord("\f")),
    (ord("\v"), ord("\v")),
)
