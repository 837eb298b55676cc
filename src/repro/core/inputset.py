"""The Sirius query input set: 16 VC + 16 VQ + 10 VIQ = 42 queries (Table 1).

Texts follow the paper's examples (Table 1 and Table 2): voice commands are
device actions, voice queries are factoid questions (answerable against the
knowledge corpus in :mod:`repro.websearch.documents`), and voice-image
queries pair a question with a camera image of a database scene.

Numbers are spelled out ("eight am") because the queries are *spoken* — the
synthesizer renders words, and the recognizer's vocabulary is word-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.asr.audio import Synthesizer
from repro.core.query import IPAQuery, QueryType
from repro.imm.image import SceneGenerator

#: Voice Commands (Table 1: "Set my alarm for 8am.") — 16 entries.
VOICE_COMMANDS: Tuple[str, ...] = (
    "set my alarm for eight am",
    "wake me up at six",
    "remind me to call mom",
    "call the office now",
    "text julia i am late",
    "play some jazz music",
    "pause the music",
    "stop the timer",
    "open the calendar app",
    "start a run workout",
    "turn on the lights",
    "navigate to the airport",
    "take a selfie",
    "send the report to bob",
    "schedule lunch for noon",
    "add milk to my list",
)

#: Voice Queries (Table 2 style) — 16 factoid questions over the KB.
VOICE_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("where is las vegas", "nevada"),
    ("what is the capital of italy", "rome"),
    ("who is the author of harry potter", "rowling"),
    ("who was elected forty fourth president", "barack obama"),
    ("what is the capital of france", "paris"),
    ("how tall is mount everest", "8848"),
    ("how long is the nile river", "6650"),
    ("where is the amazon river", "south america"),
    ("when was the first moon landing", "1969"),
    ("who invented the telephone", "bell"),
    ("who founded microsoft", "gates"),
    ("what is the capital of japan", "tokyo"),
    ("what is the capital of australia", "canberra"),
    ("when did the titanic sink", "1912"),
    ("what is the capital of cuba", "havana"),
    ("who is the current president of the united states", "barack obama"),
)

#: Voice-Image Queries — 10 questions each paired with a database scene.
VOICE_IMAGE_QUERIES: Tuple[Tuple[str, str, int], ...] = (
    ("when does this restaurant close", "", 0),
    ("what is the capital of italy", "rome", 1),
    ("where is las vegas", "nevada", 2),
    ("who painted the mona lisa", "leonardo da vinci", 3),
    ("what is the capital of spain", "madrid", 4),
    ("when does this museum open", "", 5),
    ("what is the capital of germany", "berlin", 6),
    ("who discovered penicillin", "alexander fleming", 7),
    ("what is the capital of brazil", "brasilia", 8),
    ("when did the titanic sink", "1912", 9),
)

N_SCENES = 10


def all_sentences() -> List[str]:
    """Every spoken text in the input set (LM / acoustic training corpus)."""
    texts = list(VOICE_COMMANDS)
    texts.extend(question for question, _ in VOICE_QUERIES)
    texts.extend(question for question, _, _ in VOICE_IMAGE_QUERIES)
    return texts


@dataclass
class InputSet:
    """Materialized queries: audio synthesized, images attached.

    ``synth_seed`` controls the speaker jitter; using a seed different from
    the acoustic-training seeds means recognition runs on unseen audio.
    """

    voice_commands: List[IPAQuery]
    voice_queries: List[IPAQuery]
    voice_image_queries: List[IPAQuery]

    @classmethod
    def build(
        cls,
        synth_seed: int = 2015,
        scene_generator: Optional[SceneGenerator] = None,
    ) -> "InputSet":
        synthesizer = Synthesizer(seed=synth_seed)
        generator = scene_generator if scene_generator is not None else SceneGenerator()

        commands = [
            IPAQuery(
                audio=synthesizer.synthesize(text),
                text=text,
                expected_type=QueryType.VOICE_COMMAND,
            )
            for text in VOICE_COMMANDS
        ]
        queries = [
            IPAQuery(
                audio=synthesizer.synthesize(text),
                text=text,
                expected_type=QueryType.VOICE_QUERY,
                expected_answer=answer,
            )
            for text, answer in VOICE_QUERIES
        ]
        image_queries = [
            IPAQuery(
                audio=synthesizer.synthesize(text),
                image=generator.query_for(scene),
                text=text,
                expected_type=QueryType.VOICE_IMAGE_QUERY,
                expected_answer=answer,
                expected_image=f"scene-{scene}",
            )
            for text, answer, scene in VOICE_IMAGE_QUERIES
        ]
        return cls(commands, queries, image_queries)

    @property
    def all_queries(self) -> List[IPAQuery]:
        return self.voice_commands + self.voice_queries + self.voice_image_queries

    def by_type(self, query_type: QueryType) -> List[IPAQuery]:
        return {
            QueryType.VOICE_COMMAND: self.voice_commands,
            QueryType.VOICE_QUERY: self.voice_queries,
            QueryType.VOICE_IMAGE_QUERY: self.voice_image_queries,
        }[query_type]

    def __len__(self) -> int:
        return len(self.all_queries)
