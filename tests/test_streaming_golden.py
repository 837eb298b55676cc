"""Bit-identity of the streaming path against the code it replaced.

``tests/fixtures/streaming_golden.json`` was written by ``compute_golden()``
running on the commit before the incremental endpointer floor, the one-hop
gateway operations and the bounded streaming front-end (a ``np.percentile``
over the whole energy history per VAD frame, ``np.hamming`` / ``np.pad`` /
``np.vstack`` over all history per push, two pool hops per ``feed``) and is
never regenerated from the code under test.  Feature rows are pinned as a
sha256 over their float64 bytes and scores as ``float.hex()``, so a one-ulp
drift in the front-end, a partial emitted one frame early, or an endpoint
decided one VAD frame late fails here.

Re-versioned at PR 23: expanded-quadratic scoring, scores moved ≤ 1e-10
(``DiagonalGMM.component_log_likelihood``, see ``tests/test_asr_golden.py``).
Before the fixture was rewritten the change was held against the previous
one: every feature sha256, partial with its ``frames_seen``, final text and
``n_frames``, endpointer trace and the whole ``gateway`` entry equal, all 156
final scores within 1.0e-11 of their old values (``CHANGES.md``, PR 23).
Utterances are keyed by position since then, so the three sentences the input
set repeats are pinned on both takes (84 entries; ``speaker:text`` keys held
78).

Regenerate (only from a commit whose output is the intended reference):
``PYTHONPATH=src:. python tests/test_streaming_golden.py``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.asr import Synthesizer
from repro.asr.audio import Waveform
from repro.asr.streaming import StreamingDecoder, StreamingFeatureExtractor
from repro.asr.vad import StreamingEndpointer
from repro.core import InputSet, SiriusPipeline
from repro.core.inputset import all_sentences
from repro.serving import serve_streams

GOLDEN = Path(__file__).parent / "fixtures" / "streaming_golden.json"
#: Synthesizer seeds; each speaker says the whole input set in order.
SPEAKERS = (3, 17)
#: Samples per chunk: the gateway's 100 ms, and a size no frame, hop or VAD
#: frame divides.
CHUNKINGS = (1600, 777)
#: Trailing digital silence for the endpointer's second pass, so every
#: utterance has an endpoint frame to pin (the bare ones mostly never flip).
TRAILING_SILENCE = 8000
GATEWAY_KEY = "gateway"


def endpoint_trace(chunks):
    """``[frames_seen, endpointed, flip_frame]`` after pushing every chunk."""
    endpointer = StreamingEndpointer()
    flipped = None
    for chunk in chunks:
        if endpointer.push(chunk) and flipped is None:
            flipped = endpointer.frames_seen - 1
    return [endpointer.frames_seen, endpointer.endpointed, flipped]


def stream_utterance(decoder, samples, step):
    """Everything one chunking of one utterance produces, as JSON values."""
    chunks = [samples[offset : offset + step] for offset in range(0, len(samples), step)]
    features = StreamingFeatureExtractor(decoder.feature_extractor.config)
    rows = [features.push(chunk) for chunk in chunks] + [features.flush()]
    streaming = StreamingDecoder(decoder)
    partials, last = [], ""
    for chunk in chunks:
        streaming.feed(chunk)
        text = streaming.partial()
        if text and text != last:
            partials.append([text, streaming.frames_seen])
            last = text
    final = streaming.finish()
    silence = np.zeros(TRAILING_SILENCE)
    return {
        "features": hashlib.sha256(
            np.ascontiguousarray(np.vstack(rows), dtype=np.float64).tobytes()
        ).hexdigest(),
        "partials": partials,
        "final": [final.text, float(final.log_score).hex(), final.n_frames],
        "endpointer": endpoint_trace(chunks),
        "endpointer_padded": endpoint_trace(
            chunks + [silence[offset : offset + step] for offset in range(0, len(silence), step)]
        ),
    }


def gateway_queries(input_set, n=50):
    """The 50-session stream of ``test_fifty_concurrent_sessions``, every fifth
    utterance followed by 0.6 s of silence so that endpoints fire and late
    chunks are dropped."""
    queries = input_set.all_queries
    stream = []
    for index in range(n):
        query = queries[index % len(queries)]
        if index % 5 == 0:
            audio = query.audio
            padded = np.concatenate([audio.samples, np.zeros(int(0.6 * audio.sample_rate))])
            query = dataclasses.replace(query, audio=Waveform(padded, audio.sample_rate))
        stream.append(query)
    return stream


def gateway_trace(executor, input_set):
    """What ``serve_streams`` reports for :func:`gateway_queries` at 100 ms."""
    report = serve_streams(executor, gateway_queries(input_set), chunk_seconds=0.1)
    return {
        "transcripts": [response.transcript for response in report.responses],
        "partial_counts": report.partial_counts,
        "endpointed": report.endpointed,
        "late_chunks": report.late_chunks,
    }


def utterance_traces(decoder):
    """:func:`stream_utterance` of every input-set sentence × speaker × chunking.

    Keyed by position: three sentences occur twice in the input set, and the
    two takes of one are different waveforms.
    """
    golden = {}
    for speaker in SPEAKERS:
        synthesizer = Synthesizer(seed=speaker)
        for index, text in enumerate(all_sentences()):
            samples = synthesizer.synthesize(text).samples
            golden[f"{speaker}:{index:02d}:{text}"] = {
                f"chunk={step}": stream_utterance(decoder, samples, step)
                for step in CHUNKINGS
            }
    return golden


def compute_golden(pipeline, input_set):
    golden = utterance_traces(pipeline.serving.services["asr"].decoder)
    golden[GATEWAY_KEY] = gateway_trace(pipeline.serving, input_set)
    return golden


def test_matches_parent_golden(sirius_pipeline):
    """Every utterance entry; the ``gateway`` entry is held by
    ``test_streaming_sessions.py::TestOneHopPerOperation``."""
    expected = json.loads(GOLDEN.read_text())
    del expected[GATEWAY_KEY]
    actual = utterance_traces(sirius_pipeline.serving.services["asr"].decoder)
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key


if __name__ == "__main__":
    # One line per utterance keeps the fixture diffable.
    lines = [
        f" {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(compute_golden(SiriusPipeline.build(), InputSet.build()).items())
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")
