"""Shard-aware placement: scatter/gather over partitioned IMM and QA state.

The paper's warehouse-scale services do not fit one node: the image
database and the web-search inverted index are *partitioned* across
replicas, and a single query fans out to every shard, merging partial
results on the way back (Section 6's scale-out architecture).  This module
supplies both halves:

- **shard builders** — :func:`shard_image_database` partitions a
  registered :class:`~repro.imm.database.ImageDatabase` scene-by-scene
  (feature lists are moved, never re-extracted), and
  :func:`shard_documents` partitions a websearch corpus so each shard gets
  its own :class:`~repro.websearch.engine.SearchEngine`;
- **sharded services** — :class:`ShardedQaService` /
  :class:`ShardedImmService` keep the plain ``qa`` / ``imm`` service
  names and labels, so query plans, chaos plans, and resilience policies
  apply unchanged; inside, one ``invoke`` scatters to every shard and
  gathers with a **deterministic merge** (descending score/votes, ties by
  text/name — replay-stable under any shard interleaving).

**Degradation contract.**  A shard failure is partial by design: the
gather merges whatever succeeded and annotates the span with
``shard.failed`` (observable degradation, answer still served).  Only
when *every* shard fails does the service raise a
:class:`~repro.errors.ServiceError`, handing the executor its usual
degradation rules (QA → fallback answer, IMM → VIQ-served-as-VQ).  Shard
faults can be injected deterministically through an optional
:class:`~repro.serving.faults.FaultPlan` keyed by per-shard service names
(``qa.shard0``, ``imm.shard1``, ...), the hook the conformance suite uses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ServiceError, SiriusError
from repro.imm.database import ImageDatabase, MatchResult
from repro.obs.context import annotate
from repro.qa.engine import QAEngine, QAResult
from repro.qa.filters import FilterStats
from repro.qa.scoring import ScoredAnswer
from repro.serving.faults import LATENCY, FaultPlan, charge_virtual_seconds
from repro.serving.service import IMM, QA, Service, ServiceRequest
from repro.websearch.engine import SearchEngine


# -- shard builders ----------------------------------------------------------------


def _check_n_shards(n_shards: int) -> None:
    if n_shards < 1:
        raise ConfigurationError("need n_shards >= 1")


def shard_image_database(
    database: ImageDatabase, n_shards: int
) -> List[ImageDatabase]:
    """Partition a registered image database round-robin by image id.

    Features are moved by reference (registration already paid the SURF
    extraction); each shard is a fully independent database with its own
    ANN matcher over its own descriptor pool.  Shards beyond the image
    count come back empty — their matcher raises on use, which the sharded
    service treats as a failed shard (the *empty shard* edge case).
    """
    _check_n_shards(n_shards)
    shards = [
        ImageDatabase(
            surf=database.surf,
            ratio=database.ratio,
            max_checks=database.max_checks,
        )
        for _ in range(n_shards)
    ]
    for image_id, (name, features) in enumerate(
        zip(database._names, database._features)
    ):
        shards[image_id % n_shards].register(name, features)
    return shards


def shard_documents(documents: Sequence, n_shards: int) -> List[List]:
    """Round-robin partition of a document sequence (order-preserving)."""
    _check_n_shards(n_shards)
    shards: List[List] = [[] for _ in range(n_shards)]
    for position, document in enumerate(documents):
        shards[position % n_shards].append(document)
    return shards


def shard_qa_engines(engine: QAEngine, n_shards: int) -> List[QAEngine]:
    """Per-shard QA engines over a partition of the base engine's corpus.

    Each shard indexes its own document subset (a genuinely partitioned
    inverted index); the CRF tagger and filter configuration are shared —
    they are read-only models, and rebuilding one per shard would charge
    setup cost the scatter path never pays in a real fleet.
    """
    _check_n_shards(n_shards)
    subsets = shard_documents(list(engine.search_engine.corpus), n_shards)
    return [
        QAEngine(
            search_engine=SearchEngine(subset),
            tagger=engine.tagger,
            documents_per_query=engine.documents_per_query,
        )
        for subset in subsets
    ]


# -- deterministic merges ----------------------------------------------------------


def merge_ranked_answers(
    ranked_lists: Sequence[Sequence[ScoredAnswer]],
) -> List[ScoredAnswer]:
    """Gather-side merge of per-shard QA rankings, deterministically.

    Duplicate answers (same text, found on several shards) keep their best
    ``(score, support)`` witness; the merged order is descending score with
    text as the tie-break, so the result is a pure function of the
    *multiset* of shard answers — independent of shard order or
    interleaving.
    """
    best: dict = {}
    for ranked in ranked_lists:
        for answer in ranked:
            held = best.get(answer.text)
            if held is None or (answer.score, answer.support) > (
                held.score, held.support
            ):
                best[answer.text] = answer
    return sorted(best.values(), key=lambda a: (-a.score, a.text))


def merge_match_candidates(
    candidates: Sequence[MatchResult],
) -> List[MatchResult]:
    """Gather-side merge of per-shard IMM top-k lists, deterministically.

    Duplicate image names (a scene registered on several shards) keep
    their highest vote count; order is descending votes, then name.
    """
    best: dict = {}
    for candidate in candidates:
        held = best.get(candidate.image_name)
        if held is None or candidate.votes > held.votes:
            best[candidate.image_name] = candidate
    return sorted(best.values(), key=lambda m: (-m.votes, m.image_name))


# -- sharded services --------------------------------------------------------------


class _ShardedService(Service):
    """Scatter/gather plumbing shared by the QA and IMM sharded services."""

    #: Optional per-shard fault plan (keys: ``<name>.shard<i>``, e.g. ``qa.shard0``).
    fault_plan: Optional[FaultPlan] = None

    def _n_shards(self) -> int:
        raise NotImplementedError

    def _shard_fault(self, index: int, request: ServiceRequest):
        """The injected fault (if any) for one shard of this call.

        ``latency`` rules charge the virtual ledger and let the shard
        proceed; every other kind fails the shard (counted toward the
        partial-degradation contract).  Returns ``(failed, code)``.
        """
        if self.fault_plan is None:
            return False, ""
        rule = self.fault_plan.fault_for(
            f"{self.name}.shard{index}", request.ordinal, request.attempt
        )
        if rule is None:
            return False, ""
        if rule.kind == LATENCY:
            charge_virtual_seconds(rule.seconds)
            return False, ""
        return True, "INJECTED"

    def _annotate_gather(self, n_failed: int, codes: Sequence[str]) -> None:
        annotate("shard.fanout", self._n_shards())
        if n_failed:
            annotate("shard.failed", n_failed)
            annotate("shard.codes", ",".join(sorted(codes)))


class ShardedQaService(_ShardedService):
    """QA scatter/gather over partitioned search indexes.

    Keeps the plain ``qa`` name/label so plans, chaos rules, and
    resilience policies written for the single-node service apply
    verbatim.  Shards run serially inside one ``invoke`` (the scatter cost
    — repeated question analysis per shard — is the fan-out "AI tax" the
    router span and shard annotations make measurable).
    """

    name = QA
    label = "QA"

    def __init__(
        self,
        engines: Sequence[QAEngine],
        fault_plan: Optional[FaultPlan] = None,
    ):
        if not engines:
            raise ConfigurationError("ShardedQaService needs >= 1 shard engine")
        self.engines: Tuple[QAEngine, ...] = tuple(engines)
        self.fault_plan = fault_plan

    def _n_shards(self) -> int:
        return len(self.engines)

    def invoke(self, request: ServiceRequest) -> QAResult:
        question = request.payload or "?"
        gathered: List[QAResult] = []
        codes: List[str] = []
        for index, engine in enumerate(self.engines):
            failed, code = self._shard_fault(index, request)
            if failed:
                codes.append(code)
                continue
            try:
                gathered.append(engine.answer(question))
            except SiriusError as exc:
                codes.append(exc.code)
        self._annotate_gather(len(codes), codes)
        if not gathered:
            raise ServiceError(
                f"all {len(self.engines)} qa shards failed "
                f"(codes: {', '.join(sorted(codes))})",
                service=self.name,
            )
        ranked = merge_ranked_answers([result.ranked for result in gathered])
        stats = FilterStats()
        for result in gathered:
            stats.merge(result.stats)
        return QAResult(
            question=question,
            answer=ranked[0] if ranked else None,
            ranked=ranked,
            stats=stats,
            analyzed=gathered[0].analyzed,
        )


class ShardedImmService(_ShardedService):
    """IMM scatter/gather over a partitioned image database.

    Each shard extracts query features and votes locally
    (:meth:`~repro.imm.database.ImageDatabase.top_matches`); the gather
    merges the shards' top-3 candidate lists deterministically and serves
    the winner.  An
    *empty* shard (no registered scenes) fails its scatter leg — the
    partial-degradation contract absorbs it as long as any shard holds
    data.
    """

    name = IMM
    label = "IMM"

    def __init__(
        self,
        shards: Sequence[ImageDatabase],
        fault_plan: Optional[FaultPlan] = None,
    ):
        if not shards:
            raise ConfigurationError("ShardedImmService needs >= 1 shard")
        self.shards: Tuple[ImageDatabase, ...] = tuple(shards)
        self.fault_plan = fault_plan

    def _n_shards(self) -> int:
        return len(self.shards)

    def warmup(self) -> None:
        for shard in self.shards:
            if shard.n_images:
                shard._ensure_matcher()

    def invoke(self, request: ServiceRequest) -> MatchResult:
        candidates: List[MatchResult] = []
        codes: List[str] = []
        total_matches = 0
        n_keypoints = 0
        n_ok = 0
        for index, shard in enumerate(self.shards):
            failed, code = self._shard_fault(index, request)
            if failed:
                codes.append(code)
                continue
            try:
                top = shard.top_matches(request.payload, k=3)
            except SiriusError as exc:
                codes.append(exc.code)
                continue
            n_ok += 1
            if top:
                total_matches += top[0].total_matches
                n_keypoints = max(n_keypoints, top[0].n_query_keypoints)
            candidates.extend(top)
        self._annotate_gather(len(codes), codes)
        if n_ok == 0:
            raise ServiceError(
                f"all {len(self.shards)} imm shards failed "
                f"(codes: {', '.join(sorted(codes))})",
                service=self.name,
            )
        merged = merge_match_candidates(candidates)
        if not merged:
            return MatchResult("", 0, 0, n_keypoints)
        winner = merged[0]
        return MatchResult(
            image_name=winner.image_name,
            votes=winner.votes,
            total_matches=total_matches,
            n_query_keypoints=max(n_keypoints, winner.n_query_keypoints),
        )
