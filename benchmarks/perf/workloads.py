"""The four benchmark workloads: inputs, set-up, one timed operation, gold check.

Each workload builds its inputs from ``--seed`` on the harness side (the
program under test only ever sees the generated audio, images and text),
builds exactly the services it needs, runs one operation at a time in a
closed loop with a single client, and judges every operation against gold.

Sizes are fixed here and recorded in README.md; ``QUICK_N`` is the
non-comparable smoke size.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.asr.audio import Synthesizer, Waveform
from repro.core.inputset import (
    VOICE_COMMANDS,
    VOICE_IMAGE_QUERIES,
    VOICE_QUERIES,
    all_sentences,
)
from repro.core.pipeline import SiriusPipeline
from repro.core.query import IPAQuery
from repro.errors import SiriusError
from repro.imm.image import Image, SceneGenerator
from repro.qa import QAEngine
from repro.qa.evaluate import answer_matches
from repro.serving.gateway import StreamingGateway, chunk_waveform
from repro.websearch.documents import FACTS

import layers

#: Per-round input perturbation, as a share of full scale: large enough that
#: no two rounds replay bit-identical bytes, far too small to move a frame
#: or a keypoint.
DITHER = 1e-6
QUICK_N = 16
#: Microphone chunk length of a dictation session.
CHUNK_SECONDS = 0.1

#: Speakers (synthesizer seeds) ``--seed`` draws from.  Of seeds 1-60 these
#: six are left out: at the commit that defined the benchmark the recognizer
#: hears one of their " to " commands as " who ", and a workload must start
#: from zero failures for a later failure to mean something.  The criterion
#: was: every input-set sentence of the speaker transcribed exactly, by
#: ``decode_waveform`` and by a streamed gateway session.
MISHEARD_SPEAKERS = frozenset({9, 27, 32, 46, 47, 49})
SPEAKERS: Tuple[int, ...] = tuple(s for s in range(1, 61) if s not in MISHEARD_SPEAKERS)

#: Fixed phrasings per knowledge-base relation for ``text_query``.  Every
#: template is applied to every fact of its relation; none is dropped for
#: how the engine answers it.
QUESTION_TEMPLATES: Dict[str, Tuple[str, ...]] = {
    "capital": (
        "what is the capital of {s}", "what is the capital city of {s}",
        "which city is the capital of {s}", "what city is the capital of {s}",
        "where is the capital of {s}", "tell me the capital of {s}",
        "name the capital of {s}", "the capital of {s} is which city",
        "what is the name of the capital of {s}", "do you know the capital of {s}",
    ),
    "location": (
        "where is {s}", "where is {s} located", "in which place is {s}",
        "where can i find {s}", "what place is {s} in",
    ),
    "author": (
        "who is the author of {s}", "who was the author of {s}",
        "name the author of {s}", "who wrote {s}", "who published {s}",
    ),
    "44th president": (
        "who was elected 44th president", "who was the 44th president of the {s}",
        "who was elected 44th president of the {s}", "name the 44th president of the {s}",
    ),
    "height": (
        "how tall is {s}", "how high is {s}", "how many meters is {s}",
        "how high does {s} rise",
    ),
    "length": (
        "how long is the {s} river", "how long is the {s}",
        "how many kilometers is the {s}", "how far does the {s} river run",
    ),
    "year": (
        "when was the {s}", "what year was the {s}", "when did the {s} happen",
        "in what year was the {s}",
    ),
    "inventor": (
        "who invented the {s}", "who is the inventor of the {s}",
        "who was the inventor of the {s}", "name the inventor of the {s}",
    ),
    "founder": (
        "who founded {s}", "who is the founder of {s}",
        "who was the founder of {s}", "name the founder of {s}",
    ),
    "painter": (
        "who painted the {s}", "who was the painter of the {s}",
        "who is the painter of the {s}", "name the painter of the {s}",
    ),
    "speed": (
        "how fast does {s} travel", "how many meters per second does {s} travel",
        "what is the speed of {s}",
    ),
    "discoverer": (
        "who discovered {s}", "who was the discoverer of {s}",
        "who is the discoverer of {s}", "name the discoverer of {s}",
    ),
}
#: Facts left out whole, by subject: their corpus sentence never states the
#: relation ("described the double helix", "the largest ocean"), so no
#: relation-phrased question about them has an answer to find.
UNASKABLE_SUBJECTS = frozenset({"DNA", "Pacific"})


@dataclass
class Outcome:
    """One operation as the client saw it (all times in seconds)."""

    latency: float
    ttfp: float            #: operation start -> first output the user sees
    finalize: float        #: last input handed over -> response returned
    output: Tuple[str, ...]
    failed: bool
    n_spans: int = 0       #: spans the program recorded (obs.trace pass only)

    @classmethod
    def raised(cls, elapsed: float) -> "Outcome":
        """The operation raised after ``elapsed`` seconds: a failure."""
        return cls(elapsed, elapsed, elapsed, ("<raised>",), True)


def sub_seed(seed: int, *path: int) -> int:
    """A derived integer seed, stable across runs and platforms."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _dither(samples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return samples + rng.uniform(-DITHER, DITHER, samples.shape)


def dithered(query: IPAQuery, rng: np.random.Generator) -> IPAQuery:
    """The same query with fresh low-order bits in its audio and image."""
    audio = Waveform(_dither(query.audio.samples, rng), query.audio.sample_rate)
    image = query.image
    if image is not None:
        image = Image(np.clip(_dither(image.pixels, rng), 0.0, 1.0), image.name)
    return dataclasses.replace(query, audio=audio, image=image)


def voices(seed: int, count: int) -> List[Dict[str, Waveform]]:
    """``count`` speakers drawn by ``seed``, each saying every input-set sentence.

    A speaker always says the whole set in the same order, so one speaker's
    rendering of a sentence is the same audio in every workload.
    """
    speakers = random.Random(sub_seed(seed, 1)).sample(SPEAKERS, count)
    rendered = []
    for speaker in speakers:
        synth = Synthesizer(seed=speaker)
        rendered.append({text: synth.synthesize(text) for text in all_sentences()})
    return rendered


def _spoken(voice: Dict[str, Waveform], text: str, **fields: Any) -> IPAQuery:
    return IPAQuery(audio=voice[text], text=text, **fields)


def _answered(gold: str, answer: str) -> bool:
    return not gold or answer_matches(gold, answer)


def _response_failed(query: IPAQuery, response: Any) -> bool:
    return (
        response.failed
        or response.degraded
        or response.transcript != query.text
        or response.matched_image != query.expected_image
        or not _answered(query.expected_answer, response.answer)
    )


class Workload:
    """Base: subclasses fill in inputs, set-up and the operation."""

    name = ""
    #: Layer that owns whatever part of the operation no stage explains.
    root_layer = ""

    def make_inputs(self, seed: int) -> List[Any]:
        raise NotImplementedError

    def setup(self) -> None:
        """Build and warm exactly what this workload's operation needs."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` opened."""

    def prepare(self, item: Any, rng: np.random.Generator) -> Any:
        """Harness-side input perturbation for one round (untimed)."""
        return item

    def run(self, item: Any) -> Outcome:
        """One timed operation plus its gold verdict."""
        raise NotImplementedError

    def replay(self, item: Any, log: "layers.SpanLog") -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The traced operation and its stage-by-stage replay.

        Returns ``(operation output, replayed output)``; the two must be
        equal for the trace to be accepted.
        """
        raise NotImplementedError

    def set_program_tracing(self, seed: Optional[int]) -> bool:
        """Switch the program's own tracer; False when it has no hook."""
        return False

    def input_digest(self, items: Sequence[Any]) -> str:
        digest = hashlib.sha256()
        for item in items:
            for part in self._digest_parts(item):
                digest.update(part)
        return digest.hexdigest()

    def _digest_parts(self, item: Any) -> Sequence[bytes]:
        raise NotImplementedError


class _SpokenWorkload(Workload):
    """Shared plumbing for workloads whose inputs are :class:`IPAQuery`."""

    n_scenes = 1  # no query carries an image unless a subclass says so

    def setup(self) -> None:
        self.pipeline = SiriusPipeline.build(n_scenes=self.n_scenes)
        self.pipeline.serving.warmup()

    def prepare(self, item: IPAQuery, rng: np.random.Generator) -> IPAQuery:
        return dithered(item, rng)

    def set_program_tracing(self, seed: Optional[int]) -> bool:
        self.pipeline.serving.trace_seed = seed
        return True

    def _digest_parts(self, item: IPAQuery) -> Sequence[bytes]:
        parts = [item.text.encode(), item.expected_answer.encode(),
                 item.expected_image.encode(), item.audio.samples.tobytes()]
        if item.image is not None:
            parts.append(item.image.pixels.tobytes())
        return parts


class _PipelineWorkload(_SpokenWorkload):
    """``SiriusPipeline.process(q)``: the whole request is handed over at once,
    so the first thing the user sees is the response."""

    root_layer = "serving.executor"

    def run(self, item: IPAQuery) -> Outcome:
        start = time.perf_counter()
        try:
            response = self.pipeline.process(item)
        except SiriusError:
            return Outcome.raised(time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        output = (response.transcript, response.answer, response.matched_image)
        return Outcome(elapsed, elapsed, elapsed, output,
                       _response_failed(item, response), len(response.spans))

    def replay(self, item: IPAQuery, log: "layers.SpanLog"):
        root, response = log.call(self.root_layer, None, self.pipeline.process, item)
        replayed = layers.replay_pipeline(log, root, self.pipeline, item)
        return (response.transcript, response.answer, response.matched_image), replayed


class VoiceCommand(_PipelineWorkload):
    """ASR does ~99% of the work (Viterbi search, acoustic scoring, MFCCs);
    QA, regex and IMM do none, so their changes must show no change here."""

    name = "voice_command"
    speakers = 4  # x 16 Table-1 commands: n = 64, a round of ~2 s

    def make_inputs(self, seed: int) -> List[IPAQuery]:
        items = [
            _spoken(voice, text)
            for voice in voices(seed, self.speakers)
            for text in VOICE_COMMANDS
        ]
        random.Random(sub_seed(seed, 2)).shuffle(items)
        return items


class VoiceImageQuery(_PipelineWorkload):
    """The full plan ASR -> classify -> IMM + QA through serving.executor:
    the only workload where IMM works (SURF descriptors dominate); shows a
    per-service win that costs the assembled pipeline."""

    name = "voice_image_query"
    #: (speaker, camera) pairs x 10 VIQ questions: n = 10, a round of ~2.5 s.
    #: At ~250 ms an operation that is all the run length affords if every
    #: input is to be measured seven times; the ten (question, scene) pairs,
    #: which are what latency varies with, are all there.
    takes = 1
    n_scenes = 10

    def make_inputs(self, seed: int) -> List[IPAQuery]:
        scenes = SceneGenerator()
        items = []
        for take, voice in enumerate(voices(seed, self.takes)):
            camera = sub_seed(seed, 3, take)
            for text, answer, scene in VOICE_IMAGE_QUERIES:
                items.append(_spoken(
                    voice, text,
                    image=scenes.query_for(scene, seed=camera),
                    expected_answer=answer, expected_image=f"scene-{scene}",
                ))
        random.Random(sub_seed(seed, 2)).shuffle(items)
        return items


class StreamingDictation(_SpokenWorkload):
    """Uses ASR differently: asr/streaming.py has its own per-frame Viterbi
    loop and polls partials on every feed; a batch-decoder rewrite predicts
    no change here, a streaming one none on voice_command."""

    name = "streaming_dictation"
    root_layer = "serving.gateway"
    #: 16 commands x 2 speakers + 16 questions x 1 speaker: n = 48, a round
    #: of ~6 s.  Two thirds commands keeps every median inside the command
    #: mode and p90 inside the question mode (a 50/50 mix would put the median
    #: in the gap between the two, where it flips from run to run).
    command_speakers = 2
    question_speakers = 1

    def make_inputs(self, seed: int) -> List[IPAQuery]:
        speakers = voices(seed, self.command_speakers + self.question_speakers)
        items = [
            _spoken(voice, text)
            for voice in speakers[: self.command_speakers]
            for text in VOICE_COMMANDS
        ]
        items.extend(
            _spoken(voice, text, expected_answer=answer)
            for voice in speakers[self.command_speakers :]
            for text, answer in VOICE_QUERIES
        )
        random.Random(sub_seed(seed, 2)).shuffle(items)
        return items

    def setup(self) -> None:
        super().setup()
        self.gateway = StreamingGateway(
            self.pipeline.serving, max_workers=1, poll_on_feed=True
        )
        self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        self.gateway.close()
        self.loop.close()

    async def _session(self, query: IPAQuery, chunks: Sequence[Waveform]):
        """One dictation session, chunks fed back to back."""
        opened = time.perf_counter()
        handle = self.gateway.open_session(query)
        feeds = []
        for chunk in chunks:
            start = time.perf_counter()
            await handle.feed(chunk)
            feeds.append((start, time.perf_counter()))
        response = await handle.finish()
        return handle, response, opened, feeds, time.perf_counter()

    def _drive(self, query: IPAQuery):
        chunks = chunk_waveform(query.audio, CHUNK_SECONDS)
        return self.loop.run_until_complete(self._session(query, chunks))

    @staticmethod
    def _output(handle: Any, response: Any) -> Tuple[str, ...]:
        return (response.transcript, response.answer, str(len(handle.partials)))

    def run(self, item: IPAQuery) -> Outcome:
        start = time.perf_counter()
        try:
            handle, response, opened, feeds, done = self._drive(item)
        except SiriusError:
            return Outcome.raised(time.perf_counter() - start)
        latency = done - opened
        failed = (
            _response_failed(item, response)
            or handle.late_chunks > 0
            or not handle.partials          # no partial preceded the final
        )
        ttfp = handle.ttfp if handle.ttfp is not None else latency
        return Outcome(latency, ttfp, done - feeds[-1][1], self._output(handle, response),
                       failed, len(response.spans))

    def replay(self, item: IPAQuery, log: "layers.SpanLog"):
        handle, response, opened, feeds, done = self._drive(item)
        root = log.add(self.root_layer, None, opened, done)
        for start, end in feeds:
            log.add("asr.streaming", root, start, end)
        log.count("asr.audio_s", item.audio.duration)
        log.count("asr.frames", handle.session.outcome.payload.n_frames)
        log.count("gateway.chunks", len(feeds))
        log.count("gateway.partials", len(handle.partials))
        log.count("gateway.late_chunks", handle.late_chunks)
        answer = layers.replay_downstream(log, root, self.pipeline, item, response.transcript)
        # The streaming decoder is the only producer of this transcript, so
        # the chain is replayed from it; the answer is what must reproduce.
        return self._output(handle, response), (
            response.transcript, answer, str(len(handle.partials)))


class TextQuery(Workload):
    """The QA service alone, as Fig 8b/8c measure it: regex, stemmer, CRF
    and scoring own the time; ASR and IMM do none, so a regex or stemmer win
    shows here instead of drowning in ASR noise."""

    name = "text_query"
    root_layer = "qa.engine"

    def make_inputs(self, seed: int) -> List[Tuple[str, str]]:
        items = [
            (template.format(s=fact.subject.lower()), fact.answer)
            for fact in FACTS
            if fact.subject not in UNASKABLE_SUBJECTS
            for template in QUESTION_TEMPLATES[fact.relation]
        ]
        random.Random(sub_seed(seed, 2)).shuffle(items)
        return items

    def setup(self) -> None:
        self.engine = QAEngine()

    def run(self, item: Tuple[str, str]) -> Outcome:
        question, gold = item
        start = time.perf_counter()
        try:
            result = self.engine.answer(question)
        except SiriusError:
            return Outcome.raised(time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        answer = result.answer_text
        return Outcome(elapsed, elapsed, elapsed, (answer,),
                       not answer_matches(gold, answer))

    def replay(self, item: Tuple[str, str], log: "layers.SpanLog"):
        question, _ = item
        root, result = log.call(self.root_layer, None, self.engine.answer, question)
        answer = layers.replay_qa(log, root, self.engine, question)
        return (result.answer_text,), (answer,)

    def _digest_parts(self, item: Tuple[str, str]) -> Sequence[bytes]:
        return [item[0].encode(), item[1].encode()]


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (VoiceCommand, TextQuery, VoiceImageQuery, StreamingDictation)
}
