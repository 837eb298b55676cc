"""Input set for the Regex kernel (Table 4: 100 expressions / 400 sentences).

The Sirius QA engine matches a suite of patterns against question text and
retrieved documents: interrogative words, entity shapes (dates, ordinals,
money, capitalized names), and special-character filters.  This module builds
a deterministic 100-pattern set in that spirit, plus a 400-sentence corpus
generator used by the benchmark harness.
"""

from __future__ import annotations

import random
from typing import List

from repro.regex.engine import Pattern

#: Hand-written core patterns modeled on OpenEphyra's question analysis.
_CORE_PATTERNS = [
    r"^(what|where|who|when|why|how|which)\b",
    r"^(is|are|was|were|do|does|did|can|could|will|would)\b",
    r"\b(19|20)\d\d\b",
    r"\b\d+(th|st|nd|rd)\b",
    r"\$\d+(\.\d\d)?",
    r"\b\d+(\.\d+)?%",
    r"\b[A-Z][a-z]+( [A-Z][a-z]+)+\b",
    r"\b(president|capital|author|inventor|founder)\b",
    r"\b(city|country|state|river|mountain|ocean)\b",
    r"[^a-zA-Z0-9 .,?!'-]",
    r"\b(january|february|march|april|may|june|july|august|september|october|november|december)\b",
    r"\b(monday|tuesday|wednesday|thursday|friday|saturday|sunday)\b",
    r"\b\d{1,2}:\d\d(am|pm)?\b",
    r"\bhow (many|much|long|far|old|tall)\b",
    r"\b(open|close[sd]?|closing|opening) (time|hour)s?\b",
    r"\b(set|wake|remind|call|text|play|navigate)\b",
    r"\b[A-Z]{2,}\b",
    r"\b\w+ly\b",
    r"\b(in|on|at|near|by) [A-Z][a-z]+\b",
    r"\?$",
]

_TOPIC_WORDS = [
    "president", "capital", "author", "river", "mountain", "election",
    "restaurant", "museum", "airport", "station", "university", "harbor",
    "festival", "country", "island", "volcano", "senate", "treaty",
    "dynasty", "empire",
]

_SUFFIX_WORDS = ["tion", "ment", "ness", "able", "ing", "ed", "ism", "ous"]


def build_pattern_strings(count: int = 100) -> List[str]:
    """Return ``count`` deterministic pattern strings (default 100, Table 4)."""
    patterns = list(_CORE_PATTERNS)
    topic_index = 0
    suffix_index = 0
    while len(patterns) < count:
        if (len(patterns) - len(_CORE_PATTERNS)) % 2 == 0:
            word = _TOPIC_WORDS[topic_index % len(_TOPIC_WORDS)]
            topic_index += 1
            patterns.append(rf"\b{word}s?\b")
        else:
            suffix = _SUFFIX_WORDS[suffix_index % len(_SUFFIX_WORDS)]
            suffix_index += 1
            patterns.append(rf"\b\w+{suffix}\b")
    return patterns[:count]


def build_patterns(count: int = 100) -> List[Pattern]:
    """Compile the benchmark pattern set."""
    return [Pattern(text) for text in build_pattern_strings(count)]


_SENTENCE_TEMPLATES = [
    "What is the capital of {place}?",
    "Who was elected {ordinal} president of {place}?",
    "The {topic} opened in {year} and closes at {hour}:00pm.",
    "How many {topic}s are there in {place}?",
    "Set my alarm for {hour}am on {day}.",
    "{name} wrote about the {topic} near the {topic2} in {year}.",
    "Is the {topic} in {place} open on {day}?",
    "The budget was ${amount}.{cents} which grew by {pct}% since {year}.",
    "When does this {topic} close?",
    "Navigate to the {topic} at {hour}:{minute}pm.",
]

_PLACES = ["Italy", "Cuba", "France", "Michigan", "Vegas", "Peru", "Kenya", "Norway"]
_NAMES = ["Barack Obama", "Harry Potter", "Ada Lovelace", "Alan Turing", "Grace Hopper"]
_DAYS = ["monday", "tuesday", "friday", "saturday", "sunday"]


def build_sentences(count: int = 400) -> List[str]:
    """Generate ``count`` deterministic sentences mixing query and document
    text (seeded 2015)."""
    rng = random.Random(2015)
    sentences = []
    for index in range(count):
        template = _SENTENCE_TEMPLATES[index % len(_SENTENCE_TEMPLATES)]
        sentences.append(
            template.format(
                place=rng.choice(_PLACES),
                ordinal=f"{rng.randint(1, 45)}th",
                topic=rng.choice(_TOPIC_WORDS),
                topic2=rng.choice(_TOPIC_WORDS),
                year=rng.randint(1900, 2015),
                hour=rng.randint(1, 12),
                minute=f"{rng.randint(0, 59):02d}",
                day=rng.choice(_DAYS),
                name=rng.choice(_NAMES),
                amount=rng.randint(10, 9999),
                cents=f"{rng.randint(0, 99):02d}",
                pct=rng.randint(1, 99),
            )
        )
    return sentences
