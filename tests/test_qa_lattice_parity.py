"""QA answers and per-section work counters over the ``text_query`` question set.

``tests/fixtures/qa_lattice_parity.json`` was written by ``compute_parity()``
running on the commit before the question-wide CRF lattice and the lexeme
table (one Viterbi decode per sentence, feature strings built per token, the
filter chain run one document at a time) and is never regenerated from the
code under test.  Per question it pins the answer, every ranked answer with
its ``repr(score)``, the ``FilterStats`` counters, and the flops / bytes /
items / invocations of every ``qa.stemmer``, ``qa.regex`` and ``qa.crf``
section in document order: a lattice that charged its decodes to the wrong
section, or skipped a charge, moves a number here and nowhere in the answers.

The questions are every template of ``benchmarks/perf/workloads.py`` applied
to every askable fact, the set the ``text_query`` workload draws from; the
fixture stores them, so the test needs nothing outside ``src/``.

Regenerate (only from a commit whose output is the intended reference), from
a directory with no ``conftest.py`` above it:
``PYTHONPATH=<tree>/src python <tree>/tests/test_qa_lattice_parity.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.obs.context import use_tracer
from repro.obs.trace import Tracer
from repro.qa import QAEngine

FIXTURE = Path(__file__).parent / "fixtures" / "qa_lattice_parity.json"
SECTIONS = ("qa.stemmer", "qa.regex", "qa.crf")
COUNTERS = ("flops", "bytes", "items", "invocations")


def text_query_questions():
    """The ``text_query`` workload's questions, unshuffled."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "perf"))
    from workloads import QUESTION_TEMPLATES, UNASKABLE_SUBJECTS
    from repro.websearch.documents import FACTS

    return [
        template.format(s=fact.subject.lower())
        for fact in FACTS
        if fact.subject not in UNASKABLE_SUBJECTS
        for template in QUESTION_TEMPLATES[fact.relation]
    ]


def parity_entry(engine, question):
    """Everything the fixture pins about one answered question."""
    tracer = Tracer(seed=1)
    with use_tracer(tracer), tracer.trace(0), tracer.span("question"):
        result = engine.answer(question)
    stats = result.stats
    sections = {name: [] for name in SECTIONS}
    for span in tracer.spans:
        if span.kind == "section" and span.name in sections:
            sections[span.name].append([span.attributes.get(key, 0) for key in COUNTERS])
    return {
        "answer_text": result.answer_text,
        "ranked": [[a.text, repr(a.score), a.support] for a in result.ranked],
        "stats": [
            stats.sentence_hits, stats.regex_hits,
            stats.candidate_hits, stats.documents_seen,
        ],
        "sections": sections,
    }


def compute_parity(questions):
    engine = QAEngine()
    return {question: parity_entry(engine, question) for question in questions}


@pytest.fixture(scope="module")
def parity_pair():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return expected, compute_parity(list(expected))


def test_answers_stats_and_section_counters_match_the_parent(parity_pair):
    expected, actual = parity_pair
    assert list(actual) == list(expected)
    for question, entry in expected.items():
        assert actual[question] == entry, question


def test_fixture_covers_what_it_says(parity_pair):
    expected, _ = parity_pair
    assert list(expected) == text_query_questions()
    assert len(expected) > 100
    # The pinned counters are not vacuous: most questions decode sentences in
    # several documents, and some sentence repeats across documents.
    crf = [entry["sections"]["qa.crf"] for entry in expected.values()]
    assert sum(any(row[3] for row in rows) for rows in crf) > len(expected) // 2
    assert all(len(rows) == entry["stats"][3] for rows, entry in zip(crf, expected.values()))
    assert any(entry["answer_text"] for entry in expected.values())


if __name__ == "__main__":
    parity = compute_parity(text_query_questions())
    lines = [f"  {json.dumps(question)}: {json.dumps(entry)}" for question, entry in parity.items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(parity)} questions)")
