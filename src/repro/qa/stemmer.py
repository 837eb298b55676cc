"""Porter stemming algorithm (Porter, 1980) — the Sirius QA "Stemmer" kernel.

This is a faithful from-scratch implementation of the original algorithm
(steps 1a through 5b), matching the reference behaviour of Martin Porter's
published ANSI C version.  It is deliberately written as straight-line string
code — branchy, scalar, SIMD-hostile — because those are exactly the
characteristics the paper measures when porting the kernel to accelerators
(Section 4.4.2: "the stemmer algorithm contains many test statements and is
not well suited for SIMD operations").

>>> stem("relational")
'relat'
>>> stem("agreed")
'agre'
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.obs.counters import record_work
from repro.qa.tokenizer import tokenize


class _LetterClasses(dict):
    """``str.translate`` table: ``aeiou`` are vowels, ``y`` is decided by what
    precedes it, and every other character there is counts as a consonant."""

    def __missing__(self, codepoint: int) -> str:
        return "c"


_CLASSES = _LetterClasses(
    {codepoint: "c" for codepoint in range(128)}
    | {ord(vowel): "v" for vowel in "aeiou"}
    | {ord("y"): "y"}
)


def cv_of(word: str) -> str:
    """The consonant/vowel class of every letter of ``word``, as a ``c``/``v`` string.

    A ``y`` is a consonant at the start of the word or after a vowel, a vowel
    after a consonant.  A class depends only on the letters before it, so the
    class string of a prefix is the prefix of the class string: cutting a
    suffix needs no recomputation, and Porter's conditions on ``word[:n]`` are
    reads of ``cv`` up to ``n``: *m* is ``cv.count("vc", 0, n)``, ``*v*`` is
    ``cv.find("v", 0, n) >= 0``, ``*o`` is ``cv.endswith("cvc", 0, n)`` with
    ``word[n - 1]`` not ``w``, ``x`` or ``y``.

    >>> cv_of("yearly"), cv_of("toy")
    ('cvvccv', 'cvc')
    """
    cv = word.translate(_CLASSES)
    at = cv.find("y")
    while at >= 0:
        cv = cv[:at] + ("c" if at == 0 or cv[at - 1] == "v" else "v") + cv[at + 1 :]
        at = cv.find("y", at + 1)
    return cv


def _record_stemming(chars: int, words: int) -> None:
    # Counter model (branchy string kernel, see repro.obs.counters):
    # one "op" per input character — each of the five suffix-test steps
    # scans a suffix window plus a measure() pass over the stem, which
    # averages out to a small constant times the word length; bytes are
    # the word read plus the rewritten stem (1-byte ASCII chars).  This is
    # the kernel's Table 4 demand — words *presented* to the stemmer — so a
    # :class:`StemMemo` hit is charged exactly like the Porter run it saved.
    record_work(flops=chars, mem_bytes=2 * chars, items=words)



def _by_last_letter(rules: list) -> Dict[str, tuple]:
    """``(suffix, replacement)`` rules bucketed by the suffix's last letter, in
    the table's match order (longest suffix first, ties as written), each with
    its replacement's class string (none holds a ``y``: the same after any stem)."""
    buckets: Dict[str, list] = {}
    for suffix, replacement in sorted(rules, key=lambda rule: len(rule[0]), reverse=True):
        buckets.setdefault(suffix[-1], []).append((suffix, replacement, cv_of(replacement)))
    return {letter: tuple(bucket) for letter, bucket in buckets.items()}


_STEP2_RULES = _by_last_letter([
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
])

_STEP3_RULES = _by_last_letter([
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
])

# "ion" goes only after an s or a t; no other step 4 suffix ends in "n".
_STEP4_RULES = _by_last_letter([(suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize", "ion",
)])

#: Steps 2-4: the rule table and the least measure the remaining stem needs.
_SUFFIX_STEPS = ((_STEP2_RULES, 1), (_STEP3_RULES, 1), (_STEP4_RULES, 2))


class PorterStemmer:
    """Stateless Porter stemmer; use :func:`stem` for the module-level helper."""

    def stem(self, word: str) -> str:
        _record_stemming(len(word), 1)
        return self._porter(word)

    @staticmethod
    def _porter(word: str) -> str:
        if len(word) <= 2:
            return word
        word = word.lower()
        # Step 1a works on letters alone, so the classes are read after it.  From
        # here ``n`` is the word's length so far; ``word`` and ``cv`` may run past it.
        if word.endswith("s"):
            if word.endswith(("sses", "ies")):
                word = word[:-2]
            elif not word.endswith("ss"):
                word = word[:-1]
        cv, n = cv_of(word), len(word)
        # Step 1b.
        if word.endswith("eed"):
            if cv.count("vc", 0, n - 3) > 0:
                n -= 1
        else:
            if word.endswith("ed"):
                cut = n - 2
            elif word.endswith("ing"):
                cut = n - 3
            else:
                cut = 0
            if cut and cv.find("v", 0, cut) >= 0:
                n = cut
                if word.endswith(("at", "bl", "iz"), 0, n):
                    word, cv, n = word[:n] + "e", cv[:n] + "v", n + 1
                elif (
                    n >= 2 and word[n - 1] == word[n - 2] and cv[n - 1] == "c"
                    and word[n - 1] not in "lsz"
                ):
                    n -= 1
                elif (
                    cv.count("vc", 0, n) == 1 and cv.endswith("cvc", 0, n)
                    and word[n - 1] not in "wxy"
                ):
                    word, cv, n = word[:n] + "e", cv[:n] + "v", n + 1
        # Step 1c.
        if word.endswith("y", 0, n) and cv.find("v", 0, n - 1) >= 0:
            word, cv = word[: n - 1] + "i", cv[: n - 1] + "v"
        else:
            word = word[:n]
        # Steps 2, 3 and 4: the longest matching suffix decides, applied or not.
        for rules, least_measure in _SUFFIX_STEPS:
            for suffix, replacement, classes in rules.get(word[-1], ()):
                if word.endswith(suffix):
                    n = len(word) - len(suffix)
                    if cv.count("vc", 0, n) >= least_measure and (
                        suffix != "ion" or word[n - 1] in "st"
                    ):
                        word, cv = word[:n] + replacement, cv[:n] + classes
                    break
        # Step 5a.
        n = len(word)
        if word.endswith("e"):
            measure = cv.count("vc", 0, n - 1)
            if measure > 1 or (
                measure == 1
                and not (cv.endswith("cvc", 0, n - 1) and word[n - 2] not in "wxy")
            ):
                word = word[:-1]
                n -= 1
        # Step 5b.
        if word.endswith("ll") and cv.count("vc", 0, n) > 1:
            word = word[:-1]
        return word


_DEFAULT = PorterStemmer()


class StemMemo:
    """Stems of the words and sentences one question meets.

    The filters stem every sentence of every retrieved document and scoring
    stems the same sentences again once per candidate, so one question
    presents about five times as many words as it has distinct ones.  The memo
    belongs to one :class:`~repro.qa.question.AnalyzedQuestion` and goes when
    it goes; :func:`stem`, the suite kernel's path, never sees it.
    """

    def __init__(self) -> None:
        self._words: Dict[str, str] = {}
        self._texts: Dict[str, Tuple[FrozenSet[str], int, int]] = {}

    def _stem(self, word: str) -> str:
        stemmed = self._words.get(word)
        if stemmed is None:
            stemmed = self._words[word] = _DEFAULT._porter(word)
        return stemmed

    def stem(self, word: str) -> str:
        _record_stemming(len(word), 1)
        return self._stem(word)

    def stems_of(self, text: str) -> FrozenSet[str]:
        """The stems of ``text``'s tokens, as a set."""
        entry = self._texts.get(text)
        if entry is None:
            tokens = tokenize(text)
            entry = self._texts[text] = (
                frozenset(map(self._stem, tokens)), sum(map(len, tokens)), len(tokens),
            )
        stems, chars, words = entry
        _record_stemming(chars, words)
        return stems


def stem(word: str) -> str:
    """Stem one word with a shared :class:`PorterStemmer` instance."""
    return _DEFAULT.stem(word)
