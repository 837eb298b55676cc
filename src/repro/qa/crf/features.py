"""Feature extraction for the linear-chain CRF.

Each token position yields a list of string feature names; a
:class:`FeatureMap` interns them to integer ids.  The templates mirror the
classic CoNLL chunking feature set the paper's CRFsuite baseline uses: word
identity, affixes, shape, and neighbouring words.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Word types a frozen :class:`FeatureMap` keeps feature ids for; a full
#: table is emptied and refills with the words inference meets next.  The
#: QA corpus holds 221 word types and the busiest workload meets 200, so
#: a closed vocabulary never fills it; an open one costs at most about
#: 0.25 MB (some 240 bytes an entry) before it starts over.
LEXEME_TABLE_SIZE = 1024

#: What a frozen map knows of one word type: the known ids of its own
#: features in template order, then the id of ``prev=<lower>`` and of
#: ``next=<lower>`` (``None`` when unseen) — the features it gives its
#: right and left neighbours.
Lexeme = Tuple[List[int], Optional[int], Optional[int]]


class FeatureMap:
    """Grows a string-feature → integer-id mapping during training.

    After training, call :meth:`freeze` so unseen features at inference time
    map to nothing rather than growing the table.  A frozen map's ids never
    change, so it keeps each word type's ids in a bounded lexeme table and
    inference builds no feature strings for a word it has met before.
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._frozen = False
        self._lexemes: Dict[str, Lexeme] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, name: str) -> int:
        """Return the id for ``name``; -1 if frozen and unseen."""
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        if self._frozen:
            return -1
        new_id = len(self._ids)
        self._ids[name] = new_id
        return new_id

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def clear_lexemes(self) -> None:
        """Empty the lexeme table, so the next lookups start cold."""
        self._lexemes.clear()

    def _lexeme(self, token: str) -> Lexeme:
        """``token``'s entry in the lexeme table, made on its first lookup.

        Frozen maps only: an unfrozen one may still intern the names an
        entry would have missed.
        """
        entry = self._lexemes.get(token)
        if entry is None:
            known = self._ids.get
            lower = token.lower()
            entry = (
                [found for name in _own_features(token, lower) if (found := known(name)) is not None],
                known("prev=" + lower),
                known("next=" + lower),
            )
            if len(self._lexemes) >= LEXEME_TABLE_SIZE:
                self.clear_lexemes()
            self._lexemes[token] = entry
        return entry


def _shape(token: str) -> str:
    """Compressed word shape: 'Elected' -> 'Xx', '44th' -> 'dx'."""
    shape_chars: List[str] = []
    for char in token:
        if char.isupper():
            code = "X"
        elif char.islower():
            code = "x"
        elif char.isdigit():
            code = "d"
        else:
            code = "-"
        if not shape_chars or shape_chars[-1] != code:
            shape_chars.append(code)
    return "".join(shape_chars)


def _own_features(token: str, lower: str) -> List[str]:
    """The features of ``token`` that its neighbours do not change, in template order."""
    shape = _shape(token)
    features = [
        "w=" + token,
        "lower=" + lower,
        "shape=" + shape,
        "pref1=" + lower[:1],
        "pref2=" + lower[:2],
        "pref3=" + lower[:3],
        "suf1=" + lower[-1:],
        "suf2=" + lower[-2:],
        "suf3=" + lower[-3:],
    ]
    # The shape has one code per run of characters, "d" for digits only.
    if shape == "d":
        features.append("isdigit")
    if "d" in shape:
        features.append("hasdigit")
    if shape[:1] == "X":
        features.append("istitle")
    return features


def sentence_features(tokens: Sequence[str]) -> List[List[str]]:
    """Feature names active at every position of a sentence, one list per
    token: the one template list, each token lower-cased once."""
    lowered = [token.lower() for token in tokens]
    last = len(tokens) - 1
    rows: List[List[str]] = []
    for position, token in enumerate(tokens):
        features = _own_features(token, lowered[position])
        features.append("prev=" + lowered[position - 1] if position else "BOS")
        features.append("next=" + lowered[position + 1] if position < last else "EOS")
        rows.append(features)
    return rows


def extract_ids(tokens: Sequence[str], feature_map: FeatureMap) -> List[List[int]]:
    """Feature-id lists for every position of a training sentence.

    The interning walk: an unfrozen map gives unseen names the next ids, in
    template order.  Inference uses :func:`lookup_ids`, which never grows it.
    """
    intern = feature_map.intern
    return [
        [interned for name in features if (interned := intern(name)) >= 0]
        for features in sentence_features(tokens)
    ]


def lookup_ids(tokens: Sequence[str], feature_map: FeatureMap) -> List[List[int]]:
    """Ids of the features the map already knows, for every position; unseen ones dropped.

    A frozen map reads them from its lexeme table — each token's own ids,
    then its left neighbour's ``prev=`` id (or ``BOS``'s), then its right
    neighbour's ``next=`` id (or ``EOS``'s): the template order, so the lists
    equal the string walk's.  An unfrozen map takes the string walk.
    """
    known = feature_map._ids.get
    if not feature_map.frozen:
        return [
            [found for name in features if (found := known(name)) is not None]
            for features in sentence_features(tokens)
        ]
    lexemes = [feature_map._lexeme(token) for token in tokens]
    # Position p's prev= comes from p - 1's entry and its next= from p + 1's.
    prevs = [known("BOS")] + [entry[1] for entry in lexemes[:-1]]
    nexts = [entry[2] for entry in lexemes[1:]] + [known("EOS")]
    rows: List[List[int]] = []
    for (own, _, _), prev, following in zip(lexemes, prevs, nexts):
        row = own + [prev] if prev is not None else own[:]
        if following is not None:
            row.append(following)
        rows.append(row)
    return rows
