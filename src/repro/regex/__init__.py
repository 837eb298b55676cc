"""From-scratch regular-expression substrate (SLRE replacement).

Public API::

    from repro.regex import Pattern, compile, search, findall

See :mod:`repro.regex.ast` for the supported syntax.
"""

from repro.regex.engine import Match, Pattern, compile, findall, search
from repro.regex.patterns import build_patterns, build_pattern_strings, build_sentences

__all__ = [
    "Match",
    "Pattern",
    "compile",
    "findall",
    "search",
    "build_patterns",
    "build_pattern_strings",
    "build_sentences",
]
