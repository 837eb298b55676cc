"""Deterministic trace sampling: head rates, tail rules, and a latency reservoir.

Full tracing does not survive the warehouse: at the 10⁶-query
extrapolation a ~10-span query forest is tens of millions of spans — the
exact "AI Tax" overhead the related work warns against paying blindly.
The tail-at-scale prescription is to keep *every interesting* trace and a
deterministic fraction of the rest, and this module implements it without
giving up the repo's replay discipline:

- **Head sampling** — :func:`head_decision` maps ``(seed, trace_id)``
  through sha256 onto a uniform in ``[0, 1)`` and keeps the trace when it
  falls under the configured rate.  A pure function of its arguments: no
  RNG state, no arrival order, no backend dependence — the same trace is
  kept or dropped on every replay, which is what lets the conformance
  suite demand byte-identical sampling across serial/thread/process runs
  and under chaos.
- **Tail rules** — always keep traces with an error span, a degraded or
  failed root, a deadline expiry, or an open circuit breaker
  (:data:`KEEP_ERROR` ... :data:`KEEP_BREAKER`).  These override the head
  coin, so the acceptance bar — 100 % retention of
  error/degraded/deadline traces — holds at any head rate, including 0.
- **Top-latency reservoir** — the ``k`` slowest traces by *deterministic*
  latency (the executor's ``virtual_seconds`` cost model, or the replay
  driver's virtual response time; never measured wall time) are always
  kept, ties broken by trace id.  Dean & Barroso's rare-but-slow outliers
  survive even when they carry no error.

:class:`TraceSampler` applies the three layers to whole span forests (or
to virtual replay outcomes) and reports a :class:`SamplingStats` with the
measured span-reduction factor and its extrapolation to a target query
volume — the number ``repro fleet-report`` prints next to the SLO table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.trace import QUERY, Span

#: Keep reasons, in override-priority order (first match wins in reports).
KEEP_ERROR = "error"          #: any span errored
KEEP_DEADLINE = "deadline"    #: a DEADLINE error code appeared
KEEP_BREAKER = "breaker"      #: an attempt saw an open circuit breaker
KEEP_DEGRADED = "degraded"    #: the root degraded (or failed) without erroring
KEEP_SLOW = "slow"            #: top-latency reservoir member
KEEP_HEAD = "head"            #: the head coin landed under the rate
DROPPED = "dropped"

#: Error codes that force retention regardless of everything else.
DEADLINE_CODES = ("DEADLINE",)


def head_score(seed: int, trace_id: str) -> float:
    """The trace's uniform head-sampling score in ``[0, 1)``.

    A pure function of ``(seed, trace_id)``: sha256 of the pair, top 8
    bytes scaled to ``[0, 1)``.  Trace ids are themselves pure in
    ``(trace seed, ordinal)``, so the whole decision replays.
    """
    payload = f"{seed}:{trace_id}:head".encode()
    numerator = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
    return numerator / float(1 << 64)


def head_decision(seed: int, trace_id: str, rate: float) -> bool:
    """Keep this trace under plain head sampling at ``rate``?"""
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError("head sampling rate must be in [0, 1]")
    return head_score(seed, trace_id) < rate


@dataclass(frozen=True)
class TraceSummary:
    """The deterministic facts one trace contributes to a sampling verdict."""

    trace_id: str
    ordinal: int
    n_spans: int
    latency: float            #: deterministic (virtual) latency, seconds
    errored: bool
    degraded: bool
    deadline: bool
    breaker_open: bool


@dataclass(frozen=True)
class SampleVerdict:
    """One trace's fate, and the first rule that sealed it."""

    trace_id: str
    ordinal: int
    kept: bool
    reason: str               #: one of the KEEP_* constants or DROPPED
    n_spans: int = 1


@dataclass(frozen=True)
class SamplingStats:
    """What sampling kept, dropped, and saved — plus the scale-out view."""

    head_rate: float
    seed: int
    top_k: int
    total_traces: int
    kept_traces: int
    total_spans: int
    kept_spans: int
    by_reason: Tuple[Tuple[str, int], ...]   #: sorted (reason, trace count)

    @property
    def span_reduction(self) -> float:
        """Spans avoided, as a factor (total / kept; inf when all dropped)."""
        if self.kept_spans == 0:
            return float("inf") if self.total_spans else 1.0
        return self.total_spans / self.kept_spans

    def extrapolate(self, target_queries: int = 1_000_000) -> "SamplingStats":
        """Project the measured mix to ``target_queries`` traces.

        Sampling decisions are i.i.d. across traces under the hash model,
        so every class scales proportionally; counts round to nearest to
        stay integers.  The reduction factor is scale-invariant — which is
        the point: the measured replay prices the million-query hour's
        tracing bill.
        """
        if target_queries < 1:
            raise ConfigurationError("need target_queries >= 1")
        if self.total_traces == 0:
            raise ConfigurationError("cannot extrapolate from zero traces")
        scale = target_queries / self.total_traces
        return SamplingStats(
            head_rate=self.head_rate,
            seed=self.seed,
            top_k=self.top_k,
            total_traces=target_queries,
            kept_traces=int(round(self.kept_traces * scale)),
            total_spans=int(round(self.total_spans * scale)),
            kept_spans=int(round(self.kept_spans * scale)),
            by_reason=tuple(
                (reason, int(round(count * scale)))
                for reason, count in self.by_reason
            ),
        )


def summarize_forest(spans: Iterable[Span]) -> List[TraceSummary]:
    """Collapse a span forest into per-trace summaries, in ordinal order.

    Only seed-deterministic span fields are read: status, error codes,
    root degradation flags, breaker attributes, and the
    ``virtual_seconds`` cost model — never measured wall times, so the
    summaries (and every verdict built on them) are backend-independent.
    """
    traces: Dict[str, Dict] = {}
    for span in spans:
        entry = traces.setdefault(
            span.trace_id,
            {
                "ordinal": span.ordinal, "n_spans": 0, "latency": 0.0,
                "errored": False, "degraded": False, "deadline": False,
                "breaker": False,
            },
        )
        entry["n_spans"] += 1
        if span.status == "error":
            entry["errored"] = True
        if span.error_code in DEADLINE_CODES:
            entry["deadline"] = True
        if span.attributes.get("breaker") == "open":
            entry["breaker"] = True
        if span.kind == QUERY:
            entry["ordinal"] = span.ordinal
            if span.attributes.get("degraded") or span.attributes.get("failed"):
                entry["degraded"] = True
            virtual = span.attributes.get("virtual_seconds")
            if virtual is not None:
                entry["latency"] = max(entry["latency"], float(virtual))
    return [
        TraceSummary(
            trace_id=trace_id,
            ordinal=entry["ordinal"],
            n_spans=entry["n_spans"],
            latency=entry["latency"],
            errored=entry["errored"],
            degraded=entry["degraded"],
            deadline=entry["deadline"],
            breaker_open=entry["breaker"],
        )
        for trace_id, entry in sorted(
            traces.items(), key=lambda item: (item[1]["ordinal"], item[0])
        )
    ]


def summarize_outcomes(outcomes: Sequence, trace_seed: int = 0) -> List[TraceSummary]:
    """Per-trace summaries for virtual replay outcomes.

    A rejected query is a degraded trace (matching the live fleet's
    one-span ADMISSION trace); an admitted one contributes its virtual
    response time as the deterministic latency.  Trace ids come from the
    same ``(seed, ordinal)`` derivation as live tracing, so a replay and
    a live run of the same stream sample identically.
    """
    from repro.obs.trace import trace_id_for

    summaries = []
    for outcome in outcomes:
        summaries.append(
            TraceSummary(
                trace_id=trace_id_for(trace_seed, outcome.ordinal),
                ordinal=outcome.ordinal,
                n_spans=2 if outcome.admitted else 1,
                latency=outcome.response if outcome.admitted else 0.0,
                errored=not outcome.admitted,
                degraded=not outcome.admitted,
                deadline=False,
                breaker_open=False,
            )
        )
    return summaries


class TraceSampler:
    """Head rate + tail rules + top-latency reservoir over trace summaries."""

    def __init__(self, head_rate: float = 0.1, seed: int = 0, top_k: int = 8):
        if not 0.0 <= head_rate <= 1.0:
            raise ConfigurationError("head sampling rate must be in [0, 1]")
        if top_k < 0:
            raise ConfigurationError("top_k must be >= 0")
        self.head_rate = head_rate
        self.seed = seed
        self.top_k = top_k

    def _slowest(self, summaries: Sequence[TraceSummary]) -> frozenset:
        """Trace ids of the ``top_k`` slowest traces (deterministic ties)."""
        ranked = sorted(
            summaries, key=lambda s: (-s.latency, s.trace_id)
        )
        return frozenset(s.trace_id for s in ranked[: self.top_k])

    def verdicts(self, summaries: Sequence[TraceSummary]) -> List[SampleVerdict]:
        """One verdict per trace, in the input order.

        Each verdict is a pure function of ``(sampler config, the trace's
        own summary, the slow set)`` — and the slow set is itself a pure
        function of the summary multiset — so permuting arrival order
        permutes, but never changes, the verdicts.
        """
        slowest = self._slowest(summaries)
        verdicts = []
        for summary in summaries:
            if summary.errored:
                kept, reason = True, KEEP_ERROR
            elif summary.deadline:
                kept, reason = True, KEEP_DEADLINE
            elif summary.breaker_open:
                kept, reason = True, KEEP_BREAKER
            elif summary.degraded:
                kept, reason = True, KEEP_DEGRADED
            elif summary.trace_id in slowest:
                kept, reason = True, KEEP_SLOW
            elif head_decision(self.seed, summary.trace_id, self.head_rate):
                kept, reason = True, KEEP_HEAD
            else:
                kept, reason = False, DROPPED
            verdicts.append(
                SampleVerdict(
                    trace_id=summary.trace_id,
                    ordinal=summary.ordinal,
                    kept=kept,
                    reason=reason,
                    n_spans=summary.n_spans,
                )
            )
        return verdicts

    def stats(self, summaries: Sequence[TraceSummary]) -> SamplingStats:
        """Aggregate sampling outcomes for a summary set."""
        verdicts = self.verdicts(summaries)
        by_reason: Dict[str, int] = {}
        kept_traces = kept_spans = total_spans = 0
        for verdict in verdicts:
            total_spans += verdict.n_spans
            if verdict.kept:
                kept_traces += 1
                kept_spans += verdict.n_spans
                by_reason[verdict.reason] = by_reason.get(verdict.reason, 0) + 1
        return SamplingStats(
            head_rate=self.head_rate,
            seed=self.seed,
            top_k=self.top_k,
            total_traces=len(verdicts),
            kept_traces=kept_traces,
            total_spans=total_spans,
            kept_spans=kept_spans,
            by_reason=tuple(sorted(by_reason.items())),
        )
