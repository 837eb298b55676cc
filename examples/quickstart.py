"""Quickstart: build the Sirius pipeline and run one query of each class.

Run with::

    python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import InputSet, SiriusPipeline


def main() -> None:
    print("Building Sirius (loading the shipped models, indexing corpus and scenes)...")
    pipeline = SiriusPipeline.build()
    inputs = InputSet.build()

    print("\nLife of a query, one per class (Table 1):\n")
    for query in (
        inputs.voice_commands[0],        # "set my alarm for eight am"
        inputs.voice_queries[1],         # "what is the capital of italy"
        inputs.voice_image_queries[1],   # question + camera image
    ):
        response = pipeline.process(query)
        print(f"  spoken : {query.text!r}")
        print(f"  result : {response.summary()}")
        services = ", ".join(
            f"{name}={seconds * 1000:.0f}ms"
            for name, seconds in response.service_seconds.items()
        )
        print(f"  timing : {services}\n")


if __name__ == "__main__":
    main()
