"""Answer-candidate extraction from document sentences.

Candidates are typed spans: proper-noun runs (PERSON/LOCATION), numeric
tokens (NUMBER/DATE), and keyword-adjacent n-grams (GENERIC).  The CRF tagger
supplies part-of-speech evidence, exactly the role it plays in OpenEphyra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.qa.question import DATE, GENERIC, LOCATION, NUMBER, PERSON
from repro.regex import Pattern

_YEAR = Pattern(r"^(1[0-9]{3}|20[0-9]{2})$")
_NUMERIC = Pattern(r"^\d+([.,]\d+)?(th|st|nd|rd)?$")


@dataclass(frozen=True)
class Candidate:
    """A typed answer candidate extracted from one sentence."""

    text: str
    answer_type: str
    sentence: str


#: Lowercase particles that may appear inside a proper name.
_NAME_CONNECTORS = frozenset({"da", "de", "del", "della", "van", "von", "la", "le", "bin", "al"})


def _proper_noun_runs(tokens: Sequence[str], tags: Sequence[str]) -> List[str]:
    """Maximal runs of PROPN tokens ('Barack Obama'), joined by spaces.

    Lowercase name particles ("Leonardo da Vinci") continue a run when the
    following token is capitalized again.
    """
    runs: List[str] = []
    current: List[str] = []
    for index, (token, tag) in enumerate(zip(tokens, tags)):
        looks_proper = tag == "PROPN" or (token[:1].isupper() and token.lower() != token)
        is_connector = (
            bool(current)
            and token.lower() in _NAME_CONNECTORS
            and index + 1 < len(tokens)
            and tokens[index + 1][:1].isupper()
        )
        if (looks_proper and token[:1].isupper()) or is_connector:
            current.append(token)
        else:
            if current:
                runs.append(" ".join(current))
                current = []
    if current:
        runs.append(" ".join(current))
    return runs


def typed_candidates(
    sentence: str, tokens: Sequence[str], tags: Sequence[str], answer_type: str
) -> List[Candidate]:
    """All candidates of ``answer_type`` in a sentence already tokenized and
    tagged.

    Sentence-initial capitalized words are kept only when the CRF also calls
    them PROPN, which suppresses ordinary sentence-start capitals.
    """
    candidates: List[Candidate] = []
    if answer_type in (PERSON, LOCATION):
        for run in _proper_noun_runs(tokens, tags):
            candidates.append(Candidate(run, answer_type, sentence))
    elif answer_type == DATE:
        for token in tokens:
            if _YEAR.test(token):
                candidates.append(Candidate(token, DATE, sentence))
    elif answer_type == NUMBER:
        for index, token in enumerate(tokens):
            if _NUMERIC.test(token):
                # Attach a following unit word when present ("8848 meters").
                unit = ""
                if index + 1 < len(tokens) and tokens[index + 1].islower():
                    unit = " " + tokens[index + 1]
                candidates.append(Candidate(token + unit, NUMBER, sentence))
    else:  # GENERIC: proper nouns and numerics both qualify
        for run in _proper_noun_runs(tokens, tags):
            candidates.append(Candidate(run, GENERIC, sentence))
        for token in tokens:
            if _NUMERIC.test(token):
                candidates.append(Candidate(token, GENERIC, sentence))
    return candidates
