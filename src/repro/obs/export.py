"""Span exporters: JSONL (one span per line) and Chrome trace events.

Two consumers, two formats:

- **JSONL** is the archival/diff format: one JSON object per span, keys
  sorted, spans in canonical (ordinal, trace, span-ID) order.  With
  ``timing=False`` the measured fields (``start``/``end``/``wait``) are
  omitted, leaving only the seed-deterministic skeleton — two chaos
  replays with the same seed then export byte-identical files, which is
  the replay-verification contract ``repro serve-bench --chaos --trace``
  checks.  :func:`read_jsonl` round-trips either flavour.
- **Chrome trace events** (the ``chrome://tracing`` / Perfetto JSON array
  format) are the visual waterfall: each span becomes a complete ``"X"``
  event; queries map to pids (one row group per ordinal) and each stage
  under the root maps to a tid of its own, so sibling spans never share a
  lane.
"""

from __future__ import annotations

import json
from typing import Dict, IO, Iterable, List, Sequence, Union

from repro.errors import TraceError
from repro.obs.trace import Span, sort_key

#: Span fields carrying measured wall-clock values (stripped when
#: ``timing=False`` so deterministic exports stay byte-stable).
TIMING_FIELDS = ("start", "end", "wait")


def span_to_dict(span: Span, timing: bool = True) -> Dict[str, object]:
    """Plain-dict projection of one span (JSON-ready)."""
    record: Dict[str, object] = {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "kind": span.kind,
        "service": span.service,
        "ordinal": span.ordinal,
        "status": span.status,
        "error_code": span.error_code,
        "attributes": {key: span.attributes[key] for key in sorted(span.attributes)},
    }
    if timing:
        record["start"] = span.start
        record["end"] = span.end
        record["wait"] = span.wait
    return record


def span_from_dict(record: Dict[str, object]) -> Span:
    """Rebuild a span from its dict projection (timing fields optional)."""
    try:
        return Span(
            trace_id=record["trace_id"],
            span_id=record["span_id"],
            parent_id=record["parent_id"],
            name=record["name"],
            kind=record.get("kind", "service"),
            service=record.get("service", ""),
            ordinal=int(record.get("ordinal", 0)),
            start=float(record.get("start", 0.0)),
            end=float(record.get("end", 0.0)),
            wait=float(record.get("wait", 0.0)),
            status=record.get("status", "ok"),
            error_code=record.get("error_code", ""),
            attributes=dict(record.get("attributes", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed span record: {exc}") from None


def to_jsonl(spans: Sequence[Span], timing: bool = True) -> str:
    """Render spans as canonical JSONL (sorted spans, sorted keys)."""
    ordered = sorted(spans, key=sort_key)
    lines = [
        json.dumps(span_to_dict(span, timing=timing), sort_keys=True)
        for span in ordered
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(spans: Sequence[Span], path: str, timing: bool = True) -> int:
    """Write the JSONL export; returns the number of spans written."""
    text = to_jsonl(spans, timing=timing)
    with open(path, "w") as handle:
        handle.write(text)
    return len(spans)


def read_jsonl(source: Union[str, IO[str], Iterable[str]]) -> List[Span]:
    """Load spans from a JSONL export (path, open file, or line iterable)."""
    if isinstance(source, str):
        try:
            with open(source) as handle:
                return _read_lines(handle)
        except OSError as exc:
            raise TraceError(f"cannot read span export {source!r}: {exc}") from exc
    return _read_lines(source)


def _read_lines(lines: Iterable[str]) -> List[Span]:
    spans: List[Span] = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {number} is not valid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise TraceError(f"line {number} is not a span object")
        spans.append(span_from_dict(record))
    return spans


# -- Chrome trace-event export -----------------------------------------------------


def _branch_lanes(spans: Sequence[Span]) -> Dict[str, int]:
    """Assign each span a tid: roots get lane 0, each direct child of a
    root starts a lane (by start time), and descendants inherit it — so
    parallel branches render side by side instead of overlapping."""
    by_id = {span.span_id: span for span in spans}
    children: Dict[str, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    lanes: Dict[str, int] = {}
    for root in sorted((s for s in spans if not s.parent_id), key=sort_key):
        lanes[root.span_id] = 0
        branches = sorted(
            children.get(root.span_id, ()), key=lambda s: (s.start, s.span_id)
        )
        for lane, branch in enumerate(branches):
            stack = [branch]
            while stack:
                node = stack.pop()
                lanes[node.span_id] = lane
                stack.extend(children.get(node.span_id, ()))
    # Orphans (parent exported elsewhere): lane 0.
    for span in spans:
        if span.span_id not in lanes:
            parent = by_id.get(span.parent_id)
            lanes[span.span_id] = lanes.get(parent.span_id, 0) if parent else 0
    return lanes


def to_chrome_trace(spans: Sequence[Span]) -> Dict[str, object]:
    """Chrome trace-event JSON object (load in chrome://tracing / Perfetto).

    Timestamps are rebased to the earliest span start so the viewer opens
    at t=0; a deterministic (timing-stripped) export renders every span at
    zero width but still shows the full tree structure.
    """
    ordered = sorted(spans, key=sort_key)
    lanes = _branch_lanes(ordered)
    base = min((span.start for span in ordered), default=0.0)
    events: List[Dict[str, object]] = []
    for span in ordered:
        args: Dict[str, object] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "status": span.status,
        }
        if span.error_code:
            args["error_code"] = span.error_code
        if span.wait:
            args["wait_ms"] = span.wait * 1e3
        for key in sorted(span.attributes):
            args[key] = span.attributes[key]
        events.append({
            "ph": "X",
            "name": span.name if not span.service else f"{span.name} [{span.service}]",
            "cat": span.kind,
            "pid": span.ordinal,
            "tid": lanes[span.span_id],
            "ts": (span.start - base) * 1e6,
            "dur": span.duration * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path: str) -> int:
    """Write the Chrome trace JSON; returns the number of events."""
    trace = to_chrome_trace(spans)
    with open(path, "w") as handle:
        json.dump(trace, handle, sort_keys=True)
    return len(trace["traceEvents"])
