"""Replay identity: the one definition of "these two runs are the same run".

The serving stack's standing promise is that the same ``(seed, stream)``
replays byte-identically at every worker count.  Every check of that promise —
``serve-bench`` in every mode (``--replicas`` included), the ``serve.*``
registry benchmarks, the conformance suite — compares the projections
built here, and :func:`first_divergence` names *where* two runs differ
(ordinal and field; for span exports the span and attribute key) instead
of reporting a bare mismatch.

Two projections of a response stream are replay-comparable: the outcome
tuple per response and the timing-stripped span export.  Wall-clock
fields (``wall_seconds``, span ``start``/``end``/``wait``) are in
neither.  At the :class:`~repro.serving.executor.PlanExecutor` level the
fan-out claim holds for deadline + retry + degradation only: breaker
state is call-history, and each forked worker trips its own copy.
:meth:`Cluster.run_all <repro.serving.cluster.fleet.Cluster.run_all>`
keeps breakers too, by making the replica the unit of parallelism.
"""

from __future__ import annotations

import json
from itertools import zip_longest
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.core.query import SiriusResponse
from repro.obs.export import to_jsonl
from repro.obs.timeseries import response_outcome
from repro.obs.trace import collect_spans
from repro.serving.service import ASR
from repro.serving.sessions import AsrSession

#: Field names of one :func:`outcome_fingerprint` tuple, in order.
OUTCOME_FIELDS = (
    "query_type", "transcript", "answer", "matched_image", "degraded", "failures"
)

Outcome = Tuple[str, str, str, str, bool, Tuple[Tuple[str, str], ...]]


def outcome_fingerprint(responses: Sequence[SiriusResponse]) -> List[Outcome]:
    """The replay-comparable outcome of each response, in stream order."""
    return [
        (r.query_type.value, r.transcript, r.answer, r.matched_image,
         r.degraded, tuple(sorted(r.failures.items())))
        for r in responses
    ]


def span_fingerprint(responses: Sequence[SiriusResponse]) -> str:
    """The timing-stripped JSONL export of the stream's whole span forest."""
    return to_jsonl(collect_spans(responses), timing=False)


def outcome_counts(responses: Sequence[SiriusResponse]) -> Tuple[int, int, int]:
    """``(ok, degraded, failed)`` over a response stream."""
    outcomes = [response_outcome(r) for r in responses]
    return tuple(outcomes.count(kind) for kind in ("ok", "degraded", "failed"))


def _leaf_difference(a: Any, b: Any, path: str = "") -> Tuple[str, Any, Any]:
    """Path and values of the first difference between two JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key) or (key in a) != (key in b):
                return _leaf_difference(
                    a.get(key), b.get(key), f"{path}.{key}" if path else key
                )
    if isinstance(a, list) and isinstance(b, list):
        for index, (x, y) in enumerate(zip_longest(a, b)):
            if x != y:
                return _leaf_difference(x, y, f"{path}[{index}]")
    return path, a, b


def _text_divergence(a: str, b: str) -> str:
    """Locate the first difference between two deterministic text artifacts.

    One JSON document (a ``--json`` report) is walked to the first
    differing path.  Anything else is compared line by line; a JSONL span
    record is then walked the same way and labelled with its trace
    ordinal and span name, a plain line is quoted.
    """
    where = ""
    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        number, x, y = next(
            (number, p, q)
            for number, (p, q) in enumerate(
                zip_longest(a.splitlines(), b.splitlines()), start=1
            )
            if p != q
        )
        where = f"line {number} "
        try:
            x, y = json.loads(x), json.loads(y)
        except (TypeError, ValueError):
            return f"{where}{x!r} vs {y!r}"
    if isinstance(x, dict) and "span_id" in x:
        where = f"ordinal {x.get('ordinal')} span {x.get('name')!r} "
    path, x, y = _leaf_difference(x, y)
    return f"{where}{path}: {x!r} vs {y!r}"


def first_divergence(
    a: Union[str, Sequence[Outcome]], b: Union[str, Sequence[Outcome]]
) -> Optional[str]:
    """Where two runs first differ, or ``None`` when they are the same run.

    ``a`` and ``b`` are two :func:`outcome_fingerprint` lists (the answer
    names the ordinal and the field, e.g. ``ordinal 6 failures:
    IMM:CIRCUIT_OPEN vs IMM:INJECTED``) or two deterministic texts — span
    exports from :func:`span_fingerprint`, or report renderings.
    """
    if a == b:
        return None
    if isinstance(a, str):
        return _text_divergence(a, b)
    for ordinal, (x, y) in enumerate(zip(a, b)):
        for name, left, right in zip(OUTCOME_FIELDS, x, y):
            if left != right:
                if name == "failures":
                    left, right = (
                        ",".join(f"{k}:{v}" for k, v in side) or "none"
                        for side in (left, right)
                    )
                else:
                    left, right = repr(left), repr(right)
                return f"ordinal {ordinal} {name}: {left} vs {right}"
    return (f"ordinal {min(len(a), len(b))}: stream lengths differ "
            f"({len(a)} vs {len(b)} responses)")


def replay_divergence(
    first: Sequence[SiriusResponse], second: Sequence[SiriusResponse]
) -> Tuple[Optional[str], Optional[str]]:
    """:func:`first_divergence` of two runs' outcomes and of their span forests."""
    return (
        first_divergence(outcome_fingerprint(first), outcome_fingerprint(second)),
        first_divergence(span_fingerprint(first), span_fingerprint(second)),
    )


def single_chunk_equivalent(executor, query, ordinal: int) -> bool:
    """The streaming-equivalence anchor for one query.

    A session fed the whole utterance as one chunk and finished without
    polling, replayed through ``run(precomputed=...)``, must reproduce
    plain ``PlanExecutor.run`` byte-identically — the outcome, the
    ``action`` field and the timing-stripped spans.
    """
    plain = executor.run(query, ordinal=ordinal, on_error="degrade")
    session = AsrSession(
        executor.services[ASR], query=query, ordinal=ordinal,
        seed=executor.trace_seed,
    )
    session.feed(query.audio)
    outcome = session.finish()
    replay = executor.run(
        query, ordinal=ordinal, precomputed={ASR: outcome},
        wall_start=session.opened_at, on_error="degrade",
    )
    return (
        replay_divergence([plain], [replay]) == (None, None)
        and plain.action == replay.action
    )
