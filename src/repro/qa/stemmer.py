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

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.obs.counters import record_work
from repro.qa.tokenizer import tokenize

_VOWELS = "aeiou"


def _record_stemming(chars: int, words: int) -> None:
    # Counter model (branchy string kernel, see repro.obs.counters):
    # one "op" per input character — each of the five suffix-test steps
    # scans a suffix window plus a measure() pass over the stem, which
    # averages out to a small constant times the word length; bytes are
    # the word read plus the rewritten stem (1-byte ASCII chars).  This is
    # the kernel's Table 4 demand — words *presented* to the stemmer — so a
    # :class:`StemMemo` hit is charged exactly like the Porter run it saved.
    record_work(flops=chars, mem_bytes=2 * chars, items=words)


def _longest_first(rules: list) -> tuple:
    """A ``(suffix, replacement)`` table in match order: longest suffix first, ties as written."""
    return tuple(sorted(rules, key=lambda rule: len(rule[0]), reverse=True))


def _is_consonant(word: str, index: int) -> bool:
    char = word[index]
    if char in _VOWELS:
        return False
    if char == "y":
        # 'y' is a consonant at the start or after a vowel position that is
        # itself a consonant; otherwise it acts as a vowel.
        return index == 0 or not _is_consonant(word, index - 1)
    return True


def _measure(stem_text: str) -> int:
    """Porter's m: the number of VC (vowel-consonant) sequences in the stem."""
    forms = []
    for index in range(len(stem_text)):
        consonant = _is_consonant(stem_text, index)
        if not forms or (forms[-1] == "C") != consonant:
            forms.append("C" if consonant else "V")
    return "".join(forms).count("VC")


def _contains_vowel(stem_text: str) -> bool:
    return any(not _is_consonant(stem_text, index) for index in range(len(stem_text)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """True for consonant-vowel-consonant endings, last consonant not w/x/y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


class PorterStemmer:
    """Stateless Porter stemmer; use :func:`stem` for the module-level helper."""

    def stem(self, word: str) -> str:
        _record_stemming(len(word), 1)
        return self._porter(word)

    def _porter(self, word: str) -> str:
        if len(word) <= 2:
            return word
        word = word.lower()
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    def stem_words(self, words: Iterable[str]) -> List[str]:
        """Stem a word list (the suite kernel's per-word granularity)."""
        return [self.stem(word) for word in words]

    # -- steps ------------------------------------------------------------------

    @staticmethod
    def _step1a(word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            if _measure(word[:-3]) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if _ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if _measure(word) == 1 and _ends_cvc(word):
                return word + "e"
        return word

    @staticmethod
    def _step1c(word: str) -> str:
        if word.endswith("y") and _contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_SUFFIXES = _longest_first([
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

    def _step2(self, word: str) -> str:
        return self._replace_longest(word, self._STEP2_SUFFIXES, min_measure=1)

    _STEP3_SUFFIXES = _longest_first([
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ])

    def _step3(self, word: str) -> str:
        return self._replace_longest(word, self._STEP3_SUFFIXES, min_measure=1)

    _STEP4_SUFFIXES = tuple(sorted([
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ], key=len, reverse=True))

    @staticmethod
    def _step4(word: str) -> str:
        for suffix in PorterStemmer._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem_text = word[: -len(suffix)]
                if _measure(stem_text) > 1:
                    return stem_text
                return word
        # (m>1) and ((*S or *T) ion -> delete ion
        if word.endswith("ion"):
            stem_text = word[:-3]
            if _measure(stem_text) > 1 and stem_text and stem_text[-1] in "st":
                return stem_text
        return word

    @staticmethod
    def _step5a(word: str) -> str:
        if word.endswith("e"):
            stem_text = word[:-1]
            measure = _measure(stem_text)
            if measure > 1:
                return stem_text
            if measure == 1 and not _ends_cvc(stem_text):
                return stem_text
        return word

    @staticmethod
    def _step5b(word: str) -> str:
        if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
            return word[:-1]
        return word

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _replace_longest(word: str, suffixes, min_measure: int) -> str:
        for suffix, replacement in suffixes:
            if word.endswith(suffix):
                stem_text = word[: -len(suffix)]
                if _measure(stem_text) >= min_measure:
                    return stem_text + replacement
                return word
        return word


_DEFAULT = PorterStemmer()


class StemMemo:
    """Stems of the words and sentences one question meets.

    The filters stem every sentence of every retrieved document and scoring
    stems the same sentences again once per candidate, so one question
    presents about five times as many words as it has distinct ones.  The memo
    belongs to one :class:`~repro.qa.question.AnalyzedQuestion` and goes when
    it goes; :func:`stem` and :func:`stem_words`, the suite kernel's path,
    never see it.
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


def stem_words(words: Iterable[str]) -> List[str]:
    """Stem many words (used by the Sirius Suite stemmer kernel)."""
    return _DEFAULT.stem_words(words)
