"""Per-layer tracing from outside the program: spans, stage replay, kernels.

The program is not instrumented by this benchmark.  Every layer is timed
through its public functions, from these files: the traced round first runs
the whole operation (the root span), then replays it stage by stage,
chaining each stage's output into the next exactly as ``full_plan()`` does.
Where one public call contains another (``decode_features`` scores the
frames it searches, ``ImageDatabase.match`` detects and describes before it
votes) the inner call is replayed on the same input as a child span, and a
layer's self time is its span minus its children.

A replayed span starts after its parent ended: parent links, not time
intervals, define the nesting.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.query import IPAQuery
from repro.imm.integral import integral_image
from repro.qa.filters import FilterStats
from repro.qa.question import analyze, search_query
from repro.qa.scoring import aggregate
from repro.suite import all_kernels

#: Every layer the benchmark reports, in pipeline order (layer = module name).
LAYERS: Tuple[str, ...] = (
    "asr.features", "asr.acoustic", "asr.decoder", "asr.streaming",
    "serving.gateway", "core.classifier",
    "qa.question", "websearch.engine", "qa.stemmer", "regex", "qa.crf",
    "qa.scoring", "qa.engine",
    "imm.hessian", "imm.descriptor", "imm.matcher",
    "serving.executor",
)
ASR_LAYERS = ("asr.features", "asr.acoustic", "asr.decoder", "asr.streaming")
#: Work counted at the layer boundaries, summed per operation.
COUNTS: Tuple[str, ...] = (
    "asr.frames", "asr.audio_s", "qa.docs", "qa.sentences", "regex.hits",
    "qa.candidates", "imm.keypoints", "imm.matches", "imm.votes",
    "gateway.chunks", "gateway.partials", "gateway.late_chunks",
)
#: Kernels shorter than this are repeated so their rate is not one sample.
KERNEL_MIN_SECONDS = 0.25
KERNEL_MAX_REPEATS = 20


class SpanLog:
    """In-memory spans of the traced pass; written out when the run ends.

    The pass may trace an operation more than once.  Each attempt is recorded
    between :meth:`begin` and :meth:`commit`, and per operation the attempt
    that took the least wall time is the one kept: as with the end-to-end
    best-of-rounds, that is the one the machine disturbed least.
    """

    def __init__(self) -> None:
        #: op_id -> (spans, counts) of the fastest attempt.
        self.kept: Dict[int, Tuple[List[Dict[str, Any]], Dict[str, float]]] = {}
        self.begin(0)

    def begin(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def add(self, name: str, parent: Optional[int], start: float, end: float) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent, "op_id": self.op_id})
        return len(self.spans) - 1

    def call(self, name: str, parent: Optional[int], fn: Callable, *args: Any):
        """Time ``fn(*args)`` as one span; returns ``(span id, result)``."""
        start = time.perf_counter()
        result = fn(*args)
        return self.add(name, parent, start, time.perf_counter()), result

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def commit(self) -> float:
        """End the attempt; returns the seconds its root span (the whole
        operation, the first span added) took."""
        kept = self.kept.get(self.op_id)
        if kept is None or _wall(self.spans) < _wall(kept[0]):
            self.kept[self.op_id] = (self.spans, self.counts)
        return self.spans[0]["end"] - self.spans[0]["start"]

    def export(self) -> List[Dict[str, Any]]:
        """Kept spans, ids unique across operations, times in seconds since
        the first of them started."""
        origin = min(span["start"] for spans, _ in self.kept.values() for span in spans)
        exported: List[Dict[str, Any]] = []
        for spans, _ in self.kept.values():
            base = len(exported)
            exported.extend({
                **span, "id": span["id"] + base,
                "parent": None if span["parent"] is None else span["parent"] + base,
                "start": span["start"] - origin, "end": span["end"] - origin,
            } for span in spans)
        return exported


def _wall(spans: List[Dict[str, Any]]) -> float:
    return max(span["end"] for span in spans) - min(span["start"] for span in spans)


# -- stage-by-stage replay -------------------------------------------------------


def replay_qa(log: SpanLog, parent: int, engine: Any, question: str) -> str:
    """``QAEngine.answer`` through its public stages; returns the answer text."""
    filters = engine.pipeline
    _, analyzed = log.call("qa.question", parent, analyze, question, engine.tagger)
    _, results = log.call(
        "websearch.engine", parent, engine.search_engine.search,
        search_query(analyzed), engine.documents_per_query,
    )
    stats = FilterStats()
    scored = []
    for result in results:
        stats.documents_seen += 1
        _, selected = log.call(
            "qa.stemmer", parent, filters.keyword_filter.apply,
            analyzed, result.document, stats,
        )
        _, surviving = log.call("regex", parent, filters.regex_filter.apply, selected, stats)
        _, candidates = log.call(
            "qa.crf", parent, filters.extraction_filter.apply, analyzed, surviving, stats
        )
        scored.extend((candidate, result.score) for candidate in candidates)
    _, ranked = log.call("qa.scoring", parent, aggregate, analyzed, scored)
    log.count("qa.docs", stats.documents_seen)
    log.count("qa.sentences", stats.sentence_hits)
    log.count("regex.hits", stats.regex_hits)
    log.count("qa.candidates", stats.candidate_hits)
    return ranked[0].text if ranked else ""


def replay_downstream(
    log: SpanLog, parent: int, pipeline: Any, query: IPAQuery, transcript: str
) -> str:
    """Everything the plan runs after ASR except IMM: classify, then QA
    behind the plan's ``needs_answer`` guard.  Returns the answer text."""
    _, verdict = log.call("core.classifier", parent, pipeline.classifier.classify, transcript)
    if verdict.is_action and query.image is None:
        return ""
    return replay_qa(log, parent, pipeline.qa_engine, transcript or "?")


def replay_pipeline(
    log: SpanLog, parent: int, pipeline: Any, query: IPAQuery
) -> Tuple[str, str, str]:
    """``SiriusPipeline.process`` stage by stage: (transcript, answer, image)."""
    decoder = pipeline.decoder
    _, features = log.call(
        "asr.features", parent, decoder.feature_extractor.extract, query.audio
    )
    search, decoded = log.call("asr.decoder", parent, decoder.decode_features, features)
    log.call("asr.acoustic", search, decoder.acoustic_model.emission_scores, features)
    log.count("asr.frames", len(features))
    log.count("asr.audio_s", query.audio.duration)
    matched = ""
    if query.image is not None:
        database = pipeline.image_database
        voting, match = log.call("imm.matcher", parent, database.match, query.image)
        # match() builds the integral image once and hands it to both SURF
        # stages; so does the replay, which leaves that cost with the matcher.
        integral = integral_image(query.image.pixels)
        _, keypoints = log.call(
            "imm.hessian", voting, database.surf.extract_keypoints, query.image, integral
        )
        log.call(
            "imm.descriptor", voting, database.surf.describe, query.image, keypoints, integral
        )
        log.count("imm.keypoints", match.n_query_keypoints)
        log.count("imm.matches", match.total_matches)
        log.count("imm.votes", match.votes)
        matched = match.image_name
    answer = replay_downstream(log, parent, pipeline, query, decoded.text)
    return decoded.text, answer, matched


# -- spans -> metrics ------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(log: SpanLog) -> Dict[str, Tuple[float, str]]:
    """``name -> (value, unit)`` for every layer and work count of the pass."""
    self_time: Dict[str, Dict[int, float]] = {layer: defaultdict(float) for layer in LAYERS}
    calls: Dict[str, int] = defaultdict(int)
    traced_seconds = 0.0
    ops = list(log.kept)
    for op, (spans, _) in log.kept.items():
        children = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        for span in spans:
            duration = span["end"] - span["start"]
            self_time[span["name"]][op] += duration - children[span["id"]]
            calls[span["name"]] += 1
            if span["parent"] is None:
                traced_seconds += duration
    n_ops = len(ops)

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        per_op = [self_time[layer].get(op, 0.0) for op in ops]
        busy = [seconds for seconds in per_op if seconds] or [0.0]
        # Median over the operations that reached the layer, so a stage half
        # the inputs skip still shows what it costs when it runs.
        metrics[f"{layer}.ms_per_op"] = (1e3 * statistics.median(busy), "ms")
        metrics[f"{layer}.calls_per_op"] = (_ratio(calls[layer], n_ops), "1/op")
        metrics[f"{layer}.share"] = (_ratio(sum(per_op), traced_seconds), "ratio")

    total = {name: sum(counts.get(name, 0.0) for _, counts in log.kept.values())
             for name in COUNTS}
    for name in COUNTS:
        if name in ("imm.votes", "gateway.late_chunks"):
            continue  # reported below, as a ratio and as a total
        unit = "s" if name.endswith("_s") else "count"
        metrics[f"{name}_per_op"] = (_ratio(total[name], n_ops), unit)
    metrics["gateway.late_chunks"] = (total["gateway.late_chunks"], "count")
    asr_seconds = sum(sum(self_time[layer].values()) for layer in ASR_LAYERS)
    metrics["asr.rtf"] = (_ratio(asr_seconds, total["asr.audio_s"]), "ratio")
    metrics["qa.filter_yield"] = (_ratio(total["qa.candidates"], total["qa.sentences"]), "ratio")
    # Share of descriptor matches that voted for the winning image.  The
    # default ``match()`` does no RANSAC, so there is no inlier count to
    # report; this is the useful-outcomes-over-attempts ratio it does have.
    metrics["imm.vote_share"] = (_ratio(total["imm.votes"], total["imm.matches"]), "ratio")
    return metrics


# -- Sirius Suite kernels ----------------------------------------------------------


def suite_metrics(scale: float) -> Tuple[Dict[str, Tuple[float, str]], bool]:
    """``suite.<kernel>.items_per_s`` at ``scale``, best of the repeats.

    Returns the metrics and whether every repeat of every kernel reproduced
    the checksum of a plain ``run()`` on the same inputs.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    checksums_ok = True
    for kernel in all_kernels():
        inputs = kernel.prepare(scale)
        reference = float(kernel.run(inputs))
        best = 0.0
        spent = 0.0
        for _ in range(KERNEL_MAX_REPEATS):
            run = kernel.execute(inputs=inputs)
            checksums_ok = checksums_ok and run.checksum == reference
            best = max(best, run.items_per_second)
            spent += run.seconds
            if spent >= KERNEL_MIN_SECONDS:
                break
        metrics[f"suite.{kernel.name}.items_per_s"] = (best, "1/s")
    return metrics, checksums_ok
