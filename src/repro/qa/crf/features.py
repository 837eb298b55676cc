"""Feature extraction for the linear-chain CRF.

Each token position yields a list of string feature names; a
:class:`FeatureMap` interns them to integer ids.  The templates mirror the
classic CoNLL chunking feature set the paper's CRFsuite baseline uses: word
identity, affixes, shape, and neighbouring words.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


class FeatureMap:
    """Grows a string-feature → integer-id mapping during training.

    After training, call :meth:`freeze` so unseen features at inference time
    map to nothing rather than growing the table.
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._frozen = False

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


def sentence_features(tokens: Sequence[str]) -> List[List[str]]:
    """Feature names active at every position of a sentence, one list per
    token: the one template list, each token lower-cased once."""
    lowered = [token.lower() for token in tokens]
    last = len(tokens) - 1
    rows: List[List[str]] = []
    for position, token in enumerate(tokens):
        lower = lowered[position]
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
        features.append("prev=" + lowered[position - 1] if position else "BOS")
        features.append("next=" + lowered[position + 1] if position < last else "EOS")
        rows.append(features)
    return rows


def token_features(tokens: Sequence[str], position: int) -> List[str]:
    """Feature names active for ``tokens[position]``: one row of :func:`sentence_features`.

    >>> token_features(["Who", "was", "elected"], 2)[:2]
    ['w=elected', 'lower=elected']
    """
    return sentence_features(tokens)[position]


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
    """Ids of the features the map already knows, for every position; unseen ones dropped."""
    known = feature_map._ids.get
    return [
        [found for name in features if (found := known(name)) is not None]
        for features in sentence_features(tokens)
    ]
