"""Exact QA answers, filter hits and regex spans against the code they replaced.

``tests/fixtures/qa_golden.json`` was written by ``compute_golden()`` running
on the commit before the lazy DFA and the per-question stem memo (a set
simulation of the Thompson NFA per start position, and ``stem()`` called on
every token of every sentence once per filter and once per candidate) and is
never regenerated from the code under test.  Scores are pinned as
``repr(float)``, so a changed summation order in ``aggregate`` fails here,
and every ``finditer`` span of the entity patterns is pinned, so a changed
match end or a skipped start position does too.

Regenerate (only from a commit whose output is the intended reference):
``PYTHONPATH=src python tests/test_qa_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.inputset import VOICE_QUERIES
from repro.qa import QAEngine
from repro.qa.filters import ENTITY_PATTERNS
from repro.qa.tokenizer import sentences

GOLDEN = Path(__file__).parent / "fixtures" / "qa_golden.json"

#: One question per knowledge-base fact, cased and punctuated (the voice
#: queries are lower-case transcripts), two with characters ``sanitize`` drops.
FACT_QUESTIONS = (
    "Where is Las Vegas located?",
    "Which city is the capital of Italy?",
    "Who wrote Harry Potter?",
    "Who was elected 44th president of the United States?",
    "Name the capital of Cuba.",
    "What is the capital city of France?",
    "How many meters is Mount Everest?",
    "How far does the Nile river run?",
    "Where can I find the Amazon?",
    "What year was the Moon landing?",
    "Who is the inventor of the telephone?",
    "Who was the founder of Microsoft?",
    "Tell me the capital of Japan!",
    "What is the capital of Australia -- Sydney or Canberra?",
    "What is the largest ocean on Earth?",
    "In what year did the Titanic sink?",
    "Who published the theory of relativity?",
    "Who painted the Mona Lisa?",
    "What is the capital of Brazil @ 1960?",
    "What is the capital of Canada #ottawa?",
)
N_SENTENCES = 30


def questions():
    return [question for question, _ in VOICE_QUERIES] + list(FACT_QUESTIONS)


def corpus_sentences(engine):
    """The first ``N_SENTENCES`` distinct sentences of the corpus, in document order."""
    seen = {}
    for document in engine.search_engine.corpus:
        for sentence in sentences(document.text):
            seen.setdefault(sentence, None)
    return list(seen)[:N_SENTENCES]


def compute_golden():
    engine = QAEngine()
    answers = {}
    for question in questions():
        result = engine.answer(question)
        stats = result.stats
        answers[question] = {
            "answer_text": result.answer_text,
            "ranked": [
                [a.text, repr(a.score), a.support, a.support_sentence]
                for a in result.ranked
            ],
            "stats": [
                stats.sentence_hits, stats.regex_hits,
                stats.candidate_hits, stats.documents_seen,
            ],
        }
    spans = {
        sentence: [
            [list(match.span()) for match in pattern.finditer(sentence)]
            for pattern in ENTITY_PATTERNS
        ]
        for sentence in corpus_sentences(engine)
    }
    return {"answers": answers, "spans": spans}


@pytest.fixture(scope="module")
def golden_pair():
    return json.loads(GOLDEN.read_text()), compute_golden()


@pytest.mark.parametrize("section", ["answers", "spans"])
def test_matches_parent_golden(golden_pair, section):
    expected, actual = golden_pair
    assert list(actual[section]) == list(expected[section])
    for key, entry in expected[section].items():
        assert actual[section][key] == entry, key


def test_golden_covers_what_it_says(golden_pair):
    expected, _ = golden_pair
    assert len(expected["answers"]) == len(VOICE_QUERIES) + len(FACT_QUESTIONS) == 36
    assert len(expected["spans"]) == N_SENTENCES
    assert all(len(per_pattern) == len(ENTITY_PATTERNS) for per_pattern in expected["spans"].values())
    # The pinned spans are not vacuous: every entity pattern matches somewhere.
    for index in range(len(ENTITY_PATTERNS)):
        assert any(per_pattern[index] for per_pattern in expected["spans"].values()), index


if __name__ == "__main__":
    # One line per question / sentence keeps the fixture diffable.
    golden = compute_golden()
    blocks = []
    for section in ("answers", "spans"):
        lines = [
            f"  {json.dumps(key)}: {json.dumps(entry)}"
            for key, entry in golden[section].items()
        ]
        blocks.append(f' "{section}": {{\n' + ",\n".join(lines) + "\n }")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN}")
