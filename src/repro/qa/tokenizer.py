"""Tokenization utilities shared by the QA service and the search substrate."""

from __future__ import annotations

from typing import List

#: Words carrying no retrieval signal, dropped when building search queries.
STOPWORDS = frozenset(
    """a an and are as at be by for from has have he her his in is it its of on
    or she that the their this to was were will with what where who when why
    how which does do did done""".split()
)


class _TokenChars(dict):
    """``str.translate`` table that leaves only token characters and spaces.

    An alphanumeric character maps to itself (lower-cased when ``lower``),
    ``'`` and ``-`` stay, and everything else becomes a space.  ASCII is
    filled in when the table is built, any other character on its first
    visit, and kept.
    """

    def __init__(self, lower: bool):
        super().__init__()
        self.lower = lower
        for code in range(128):
            self.__missing__(code)

    def __missing__(self, code: int) -> str:
        char = chr(code)
        if char.isalnum():
            kept = char.lower() if self.lower else char
        else:
            kept = char if char in "'-" else " "
        self[code] = kept
        return kept


_LOWER_TOKEN_CHARS = _TokenChars(lower=True)
_TOKEN_CHARS = _TokenChars(lower=False)


def _split(text: str, table: _TokenChars) -> List[str]:
    # A run of token characters is a token once its edge apostrophes and
    # hyphens are gone; one that is nothing else is no token.
    tokens = [token.strip("'-") for token in text.translate(table).split()]
    return [token for token in tokens if token]


def tokenize(text: str) -> List[str]:
    """Split ``text`` into lowercase word tokens, stripping punctuation.

    Hyphens and apostrophes inside words are kept (``o'clock``, ``forty-four``)
    so entity-ish tokens survive; everything else non-alphanumeric separates
    tokens.

    >>> tokenize("Who was elected 44th president?")
    ['who', 'was', 'elected', '44th', 'president']
    """
    return _split(text, _LOWER_TOKEN_CHARS)


def tokenize_keep_case(text: str) -> List[str]:
    """Like :func:`tokenize` but preserving case (needed for NER-ish features)."""
    return _split(text, _TOKEN_CHARS)


def sentences(text: str) -> List[str]:
    """Naive sentence splitter on ``.!?`` followed by whitespace.

    A period directly after a single capital letter ("J.K. Rowling",
    "U.S. senate") is treated as an abbreviation, not a terminator.
    """
    result: List[str] = []
    current: List[str] = []
    chars = list(text)
    for index, char in enumerate(chars):
        current.append(char)
        if char in ".!?" and (index + 1 == len(chars) or chars[index + 1].isspace()):
            is_initialism = (
                char == "."
                and index >= 1
                and chars[index - 1].isupper()
                and (index < 2 or not chars[index - 2].isalpha())
            )
            if is_initialism:
                continue
            sentence = "".join(current).strip()
            if sentence:
                result.append(sentence)
            current = []
    tail = "".join(current).strip()
    if tail:
        result.append(tail)
    return result


def remove_stopwords(tokens: List[str]) -> List[str]:
    """Drop stopwords; used when forming web-search queries from questions."""
    return [token for token in tokens if token not in STOPWORDS]
