"""Part-of-speech tag inventory for the CRF component.

The paper's CRF (Figure 6) labels each question word with a part of speech
("VERB NUM N" for "elected 44th president").  We use a compact universal-style
tagset, which keeps the transition matrix small while exercising the same
inference math as CoNLL-scale models.
"""

from __future__ import annotations

from typing import Dict, List

#: Ordered tag inventory; index = tag id used throughout the CRF.
TAGS: List[str] = [
    "NOUN",   # common nouns
    "PROPN",  # proper nouns
    "VERB",
    "ADJ",
    "ADV",
    "NUM",
    "DET",
    "ADP",    # prepositions
    "PRON",
    "WH",     # interrogatives (what/where/who/...)
    "PUNCT",
    "OTHER",
]

TAG_TO_ID: Dict[str, int] = {tag: index for index, tag in enumerate(TAGS)}

N_TAGS = len(TAGS)
