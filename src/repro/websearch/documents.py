"""Synthetic knowledge corpus backing the QA and Web Search services.

The paper's OpenEphyra issues live web searches; we cannot, so the corpus is
generated from a small knowledge base of (subject, relation, answer) facts.
Each fact is embedded in one or more encyclopedia-style articles along with
filler sentences, so retrieval, filtering, and answer extraction all do real
work and the QA engine can be checked for *correct answers*, not just timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.qa.tokenizer import sentences as split_sentences


@dataclass(frozen=True)
class Fact:
    """One knowledge-base triple plus a canned assertion sentence."""

    subject: str
    relation: str
    answer: str
    sentence: str


#: The ground-truth knowledge base.  Questions in the Sirius input set
#: (Table 2 style) resolve against these facts.
FACTS: List[Fact] = [
    Fact("Las Vegas", "location", "Nevada",
         "Las Vegas is a resort city located in the state of Nevada."),
    Fact("Italy", "capital", "Rome",
         "Rome is the capital of Italy and its largest city."),
    Fact("Harry Potter", "author", "J.K. Rowling",
         "The author of the Harry Potter series is J.K. Rowling."),
    Fact("United States", "44th president", "Barack Obama",
         "Barack Obama was elected 44th president of the United States."),
    Fact("Cuba", "capital", "Havana",
         "Havana is the capital of Cuba and a major port."),
    Fact("France", "capital", "Paris",
         "Paris is the capital of France on the river Seine."),
    Fact("Mount Everest", "height", "8848 meters",
         "Mount Everest rises 8848 meters above sea level."),
    Fact("Nile", "length", "6650 kilometers",
         "The Nile river runs 6650 kilometers through northeastern Africa."),
    Fact("Amazon", "location", "South America",
         "The Amazon river flows across South America toward the eastern coast."),
    Fact("Moon landing", "year", "1969",
         "The first crewed Moon landing happened in 1969 during Apollo 11."),
    Fact("Telephone", "inventor", "Alexander Graham Bell",
         "Alexander Graham Bell is credited as the inventor of the telephone."),
    Fact("Microsoft", "founder", "Bill Gates",
         "Bill Gates was a founder of Microsoft in 1975."),
    Fact("Japan", "capital", "Tokyo",
         "Tokyo is the capital of Japan and its most populous city."),
    Fact("Australia", "capital", "Canberra",
         "Canberra is the capital of Australia, not Sydney."),
    Fact("Pacific", "size", "largest ocean",
         "The Pacific is the largest ocean on Earth."),
    Fact("Titanic", "year", "1912",
         "The Titanic sank in 1912 after striking an iceberg."),
    Fact("Relativity", "author", "Albert Einstein",
         "Albert Einstein published the theory of relativity."),
    Fact("Mona Lisa", "painter", "Leonardo da Vinci",
         "Leonardo da Vinci painted the Mona Lisa in the early 1500s."),
    Fact("Brazil", "capital", "Brasilia",
         "Brasilia has served as the capital of Brazil since 1960."),
    Fact("Canada", "capital", "Ottawa",
         "Ottawa is the capital of Canada on the Ottawa river."),
    Fact("Germany", "capital", "Berlin",
         "Berlin is the capital of Germany and its largest city."),
    Fact("Spain", "capital", "Madrid",
         "Madrid is the capital of Spain at the center of the peninsula."),
    Fact("Light", "speed", "299792458 meters per second",
         "Light travels at 299792458 meters per second in vacuum."),
    Fact("DNA", "discoverer", "Watson and Crick",
         "Watson and Crick described the double helix structure of DNA."),
    Fact("Penicillin", "discoverer", "Alexander Fleming",
         "Alexander Fleming discovered penicillin in 1928."),
]


@dataclass(frozen=True)
class Document:
    """A retrievable document with an id, title, and body text."""

    doc_id: int
    title: str
    text: str
    #: ``text`` split into sentences, once, for the QA filters (not part of its value).
    sentences: Tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(split_sentences(self.text)))

    def __len__(self) -> int:
        return len(self.text)


_FILLER_SENTENCES = [
    "Historians continue to debate many details of this topic.",
    "Several museums hold exhibitions related to this subject.",
    "The surrounding region attracts millions of visitors each year.",
    "Local festivals celebrate this heritage every summer.",
    "Scholars have written extensively about its influence.",
    "Trade routes shaped the development of the area.",
    "The climate is temperate with occasional storms.",
    "Recent studies revisited long-standing assumptions.",
    "Architecture from several eras stands side by side.",
    "Archives preserve maps, letters, and photographs.",
    "The population grew rapidly during the last century.",
    "Transportation links improved markedly in recent decades.",
]


#: Articles that embed each fact, and documents of filler only.
DOCUMENTS_PER_FACT = 3
N_NOISE_DOCS = 40
#: A document has 3 to 8 filler sentences.
FILLER_RANGE = (3, 8)
CORPUS_SEED = 42


def _filler(rng: random.Random) -> List[str]:
    """A document's filler: 3 to 8 sentences drawn from the filler pool."""
    return [rng.choice(_FILLER_SENTENCES) for _ in range(rng.randint(*FILLER_RANGE))]


class Corpus:
    """A generated document collection with known ground truth.

    ``DOCUMENTS_PER_FACT`` articles embed each fact; ``N_NOISE_DOCS``
    contain filler only.  Deterministic: the filler is drawn from one
    seeded generator.
    """

    def __init__(self):
        self.facts = list(FACTS)
        self.documents: List[Document] = []
        rng = random.Random(CORPUS_SEED)
        doc_id = 0
        for fact in self.facts:
            for copy in range(DOCUMENTS_PER_FACT):
                body = self._article_body(fact, rng)
                self.documents.append(
                    Document(doc_id, f"{fact.subject} ({fact.relation}) #{copy}", body)
                )
                doc_id += 1
        for noise in range(N_NOISE_DOCS):
            body = " ".join(_filler(rng))
            self.documents.append(Document(doc_id, f"Miscellany #{noise}", body))
            doc_id += 1

    @staticmethod
    def _article_body(fact: Fact, rng: random.Random) -> str:
        sentences = _filler(rng)
        # Embed the fact at a random position so extraction must scan.
        sentences.insert(rng.randrange(len(sentences) + 1), fact.sentence)
        return " ".join(sentences)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)
