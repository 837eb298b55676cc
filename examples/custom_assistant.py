"""Build a custom-domain assistant on the Sirius stack.

Shows the extension points a downstream user would touch: a custom command
grammar for ASR, a custom knowledge base for QA, and a smaller image gallery
for IMM — all without modifying the library.

Run with::

    python examples/custom_assistant.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.asr import Synthesizer
from repro.core import IPAQuery, SiriusPipeline
from repro.imm.image import SceneGenerator
from repro.qa import QAEngine
from repro.websearch import Document, Fact, SearchEngine

# A smart-factory domain: spoken commands plus a machine-manual KB.
SENTENCES = [
    "start the conveyor belt",
    "stop the packaging line",
    "what is the torque limit of the press",
    "who maintains the cooling pump",
    "when was the boiler inspected",
    "show the assembly camera",
]

FACTS = [
    Fact("press", "torque limit", "250 newton meters",
         "The press has a torque limit of 250 newton meters."),
    Fact("cooling pump", "maintainer", "Dana Webb",
         "Dana Webb maintains the cooling pump on every shift."),
    Fact("boiler", "inspection", "2014",
         "The boiler was last inspected in 2014 by the safety board."),
]


def main() -> None:
    print("Training a factory-domain assistant...")
    pipeline = SiriusPipeline.build(training_sentences=SENTENCES, n_scenes=4)
    # The machine manual is the knowledge base: one document per fact.
    manual = [
        Document(doc_id, f"{fact.subject} ({fact.relation})", fact.sentence)
        for doc_id, fact in enumerate(FACTS)
    ]
    pipeline.qa_engine = QAEngine(SearchEngine(manual))

    synthesizer = Synthesizer(seed=4242)
    for text in SENTENCES[:5]:
        query = IPAQuery(audio=synthesizer.synthesize(text), text=text)
        response = pipeline.process(query)
        print(f"  {response.summary()}")

    # A voice-image query against the factory's camera gallery.
    generator = SceneGenerator()
    query = IPAQuery(
        audio=synthesizer.synthesize("what is the torque limit of the press"),
        image=generator.query_for(2),
        text="what is the torque limit of the press",
    )
    response = pipeline.process(query)
    print(f"  {response.summary()}")


if __name__ == "__main__":
    main()
