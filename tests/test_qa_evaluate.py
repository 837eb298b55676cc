"""Tests for answer matching, and the QA engine's accuracy on the input set."""

from repro.core import VOICE_QUERIES
from repro.qa import QAEngine
from repro.qa.evaluate import answer_matches


class TestAnswerMatching:
    def test_exact(self):
        assert answer_matches("Rome", "Rome")

    def test_containment_both_ways(self):
        assert answer_matches("Rowling", "J K Rowling")
        assert answer_matches("Barack Obama", "obama")
        assert answer_matches("barack obama", "Barack Obama")

    def test_case_and_punctuation_insensitive(self):
        assert answer_matches("J.K. Rowling", "j k rowling")

    def test_no_match(self):
        assert not answer_matches("Rome", "Paris")

    def test_empty(self):
        assert not answer_matches("", "Rome")
        assert not answer_matches("Rome", "")


class TestEndToEnd:
    def test_input_set_questions_score_high(self):
        engine = QAEngine()
        correct = [
            answer_matches(gold, engine.answer(question).answer_text)
            for question, gold in VOICE_QUERIES
        ]
        assert sum(correct) / len(correct) >= 0.85
