"""The determinism gate: pinned-seed benchmarks whose every metric must replay.

A benchmark is a plain function ``run(quick) -> {metric: value}`` over the
Sirius Suite kernels, the serving stack, or the telemetry and cost planes.
Every value is a pure function of pinned seeds and input sizes — work
counters (:mod:`repro.obs.counters`), checksums, fingerprints of
deterministic artifacts, virtual latency, span and outcome counts — and
every value is gated: each of :data:`REPEATS` runs must equal the
baseline within the metric's relative tolerance, which is 0 except in
:data:`TOLERANCE` and is read from the baseline file.  No wall clock is
read; wall-clock latency belongs to ``benchmarks/perf``.  See
``docs/BENCHMARKING.md`` for the schema and the baseline workflow.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.context import use_tracer
from repro.obs.counters import aggregate_counters, kernel_counters
from repro.obs.trace import Tracer, collect_spans

#: Bumped on any incompatible change to the report JSON layout.
SCHEMA = "repro.bench/v2"

#: How many times each benchmark runs; every repeat is gated.
REPEATS = 3

#: Relative tolerance of the metrics that are not exact: checksums sum
#: through BLAS, and virtual latency is a float sum over spans.
TOLERANCE = {"checksum": 1e-6, "virtual_seconds": 1e-9}

Metrics = Dict[str, float]


def fingerprint(text: str) -> int:
    """A JSON-safe integer digest of a deterministic text artifact."""
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


# -- the benchmarks -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _kernel_inputs(kernel_name: str, quick: bool):
    from repro.suite import kernel_by_name

    kernel = kernel_by_name(kernel_name)
    return kernel, kernel.prepare(0.1 if quick else 0.5)


def _kernel(kernel_name: str, quick: bool) -> Metrics:
    """One Sirius Suite kernel under a tracer: span work counters + checksum."""
    kernel, inputs = _kernel_inputs(kernel_name, quick)
    tracer = Tracer(seed=0)
    with use_tracer(tracer):
        with tracer.trace(0, name="bench"):
            outcome = kernel.execute(inputs=inputs)
    counters = kernel_counters(tracer.spans).get(kernel_name)
    if counters is None:
        raise ConfigurationError(f"kernel {kernel_name!r} emitted no kernel span")
    return {"checksum": outcome.checksum, **counters.as_dict()}


@lru_cache(maxsize=None)
def _pipeline():
    """One pipeline per process, shared by every serve benchmark and repeat."""
    from repro.core import SiriusPipeline

    return SiriusPipeline.build()


@lru_cache(maxsize=None)
def _queries(quick: bool) -> tuple:
    """The first 2 (quick) or 4 queries of each kind — voice commands, voice
    questions, voice-image questions — so ASR, QA and IMM spans are all gated."""
    from repro.core import InputSet

    inputs = InputSet.build()
    per_kind = 2 if quick else 4
    return tuple(
        query
        for kind in (inputs.voice_commands, inputs.voice_queries, inputs.voice_image_queries)
        for query in kind[:per_kind]
    )


def _outcome_metrics(responses) -> Dict[str, int]:
    """The ``ok`` / ``degraded`` / ``failed`` counts of a stream."""
    from repro.serving.identity import outcome_counts

    return dict(zip(("ok", "degraded", "failed"), outcome_counts(responses)))


def _serve_chaos(quick: bool) -> Metrics:
    """Seeded chaos serving: replay fingerprint, virtual latency, outcomes."""
    from repro.obs.critical_path import analyze_forest
    from repro.serving import default_chaos_plan, default_policies, resilient_executor
    from repro.serving.identity import span_fingerprint

    seed = 42
    executor = resilient_executor(
        _pipeline().serving, default_policies(seed=seed), default_chaos_plan(seed),
    )
    executor.trace_seed = seed
    responses = executor.run_all(list(_queries(quick)), on_error="degrade")
    spans = collect_spans(responses)
    counters = aggregate_counters(spans)
    return {
        "forest_fingerprint": fingerprint(span_fingerprint(responses)),
        "virtual_seconds": sum(a.virtual_seconds for a in analyze_forest(spans)),
        "spans": len(spans),
        **_outcome_metrics(responses),
        "flops": counters.flops,
        "bytes": counters.bytes,
    }


def _serve_plain(quick: bool) -> Metrics:
    """Traced fault-free serving: span structure, counters, answer digest."""
    executor = _pipeline().serving
    executor.trace_seed = 0
    try:
        responses = executor.run_all(list(_queries(quick)))
    finally:
        executor.trace_seed = None
    spans = collect_spans(responses)
    counters = aggregate_counters(spans)
    return {
        "answer_fingerprint": fingerprint("\n".join(r.answer for r in responses)),
        "spans": len(spans),
        "flops": counters.flops,
        "bytes": counters.bytes,
        "items": counters.items,
    }


def _serve_streaming(quick: bool) -> Metrics:
    """Chunked sessions through the asyncio gateway: streaming determinism.

    Audio arrives in 150 ms chunks, sessions interleaved round-robin, with
    partials polled on every feed; each session's bouts are serialized, so
    poll *k* sees exactly the frames chunk *k* decoded and every count is
    gateable.  ``single_chunk_equivalent`` is the correctness anchor.
    """
    from repro.obs.trace import PARTIAL, sort_key
    from repro.serving import serve_streams
    from repro.serving.identity import single_chunk_equivalent

    queries = list(_queries(quick))
    executor = _pipeline().serving
    executor.trace_seed = 0
    try:
        report = serve_streams(executor, queries, chunk_seconds=0.15)
        equivalent = all(
            single_chunk_equivalent(executor, query, ordinal)
            for ordinal, query in enumerate(queries)
        )
    finally:
        executor.trace_seed = None
    spans = collect_spans(report.responses)
    partial_spans = [s for s in spans if s.kind == PARTIAL]
    partial_texts = "\n".join(
        f"{s.trace_id}:{s.attributes.get('partial_index')}:"
        f"{s.attributes.get('chars')}"
        for s in sorted(partial_spans, key=sort_key)
    )
    return {
        "answer_fingerprint": fingerprint(
            "\n".join(r.answer for r in report.responses)
        ),
        "transcript_fingerprint": fingerprint(
            "\n".join(r.transcript for r in report.responses)
        ),
        "partial_fingerprint": fingerprint(partial_texts),
        "partials": report.partials_total,
        "partial_spans": len(partial_spans),
        "spans": len(spans),
        "endpointed": sum(1 for flag in report.endpointed if flag),
        "late_chunks": report.late_chunks,
        "single_chunk_equivalent": int(equivalent),
        **_outcome_metrics(report.responses),
    }


@lru_cache(maxsize=None)
def _cluster(quick: bool):
    """Three sharded replicas behind the seeded router; one per size."""
    from repro.serving.cluster import AdmissionControl, build_cluster

    cluster = build_cluster(
        _pipeline(),
        n_replicas=3,
        n_shards=2,
        policy="power-of-two",
        seed=7,
        admission=AdmissionControl(drop_rate=0.2, seed=7),
        trace_seed=7,
    )
    cluster.warmup()
    return cluster


def _serve_cluster(quick: bool) -> Metrics:
    """Routed sharded fleet, live and in model replay: cluster determinism.

    The live half gates the span forest (router spans included), outcome
    and placement fingerprints and conservation counts; the model half
    gates the digest of every routing, admission, service-draw and
    scaling decision of a pinned Poisson replay with an autoscaler.
    """
    from repro.obs.trace import ROUTER
    from repro.serving.cluster import AdmissionControl, AutoscalerPolicy, seeded_replay
    from repro.serving.cluster.autoscaler import SCALE_UP
    from repro.serving.identity import outcome_fingerprint, span_fingerprint

    seed = 7
    queries = list(_queries(quick))
    cluster = _cluster(quick)
    responses = cluster.run_all(queries)
    routes = cluster.plan_routes(len(queries))
    spans = collect_spans(responses)
    # The pinned serialisation of the outcome tuple (baseline hashes it).
    outcomes = "\n".join(
        f"{kind}:{transcript}:{answer}:{image}:{int(degraded)}:{list(failures)}"
        for kind, transcript, answer, image, degraded, failures
        in outcome_fingerprint(responses)
    )
    # Model replay under pinned parameters — nothing measured feeds it.
    mean_service = 0.01
    replay = seeded_replay(
        "poisson", 0.8 / mean_service * 2, mean_service,
        2_000 if quick else 10_000,
        seed=seed,
        policy="power-of-two",
        n_replicas=2,
        admission=AdmissionControl(max_depth=40, seed=seed),
        autoscaler=AutoscalerPolicy(slo_p99=0.05, max_replicas=6),
        tick_seconds=2.0,
    )
    return {
        "forest_fingerprint": fingerprint(span_fingerprint(responses)),
        "outcome_fingerprint": fingerprint(outcomes),
        "routes_fingerprint": fingerprint("\n".join(repr(r.key()) for r in routes)),
        "replay_digest": fingerprint(replay.digest()),
        "spans": len(spans),
        "router_spans": sum(1 for s in spans if s.kind == ROUTER),
        "rejected": sum(1 for r in responses if "ROUTER" in r.failures),
        **_outcome_metrics(responses),
        "replay_rejected": replay.n_rejected,
        "replay_scaleups": sum(1 for d in replay.decisions if d.action == SCALE_UP),
    }


def _pinned_replay(seed: int, quick: bool):
    """The replay both ``obs.*`` benchmarks evaluate, pinned but for the seed."""
    from repro.serving.cluster import AutoscalerPolicy, seeded_replay

    mean_service = 0.02
    return seeded_replay(
        "poisson", 0.85 / mean_service, mean_service,
        2_000 if quick else 10_000,
        seed=seed,
        policy="least-loaded",
        n_replicas=2,
        autoscaler=AutoscalerPolicy(slo_p99=0.08, max_replicas=6),
        tick_seconds=2.0,
    )


def _obs_rollup(quick: bool) -> Metrics:
    """The fleet telemetry plane (rollups, sampling, SLO burn) on the virtual clock."""
    from repro.obs.fleet_report import (
        DROPPED,
        report_from_replay,
        report_to_json,
        sample,
        summarize_outcomes,
    )

    seed = 11
    result = _pinned_replay(seed, quick)
    report = report_from_replay(result, trace_seed=seed)
    rollups = report.rollups
    summaries = summarize_outcomes(result.outcomes, trace_seed=seed)
    reasons = sample(summaries, head_rate=0.1, seed=0, top_k=8)
    return {
        "rollup_fingerprint": fingerprint(report_to_json(report)),
        "counter_cells": len(rollups.counters),
        "panel_cells": len(rollups.panels),
        "windows": len(rollups.windows()),
        "verdict_fingerprint": fingerprint("\n".join(
            f"{s.trace_id}:{int(r != DROPPED)}:{r}" for s, r in zip(summaries, reasons)
        )),
        "kept_traces": report.sampling.kept_traces,
        "total_traces": report.sampling.total_traces,
        "kept_spans": report.sampling.kept_spans,
        "total_spans": report.sampling.total_spans,
        "alert_firings": sum(len(s.firings) for s in report.slos),
    }


def _obs_cost(quick: bool) -> Metrics:
    """The cost ledger: a pure function of the seeds and Table 6/7 constants."""
    from repro.obs.cost import format_ledger, ledger_from_replay

    ledger = ledger_from_replay(_pinned_replay(13, quick))
    return {
        "ledger_fingerprint": fingerprint(format_ledger(ledger)),
        "total_microjoules": ledger.total_microjoules,
        "tax_microjoules": ledger.tax_microjoules(),
        "queries": len(ledger.queries),
    }


#: Every benchmark by name (sorted): ``(description, run(quick) -> metrics)``.
BENCHMARKS: Dict[str, Tuple[str, Callable[[bool], Metrics]]] = dict(sorted({
    **{f"suite.{name}": (f"Sirius Suite kernel {name!r} (single-threaded)",
                         partial(_kernel, name))
       for name in ("gmm", "dnn", "stemmer", "regex", "crf", "fe", "fd")},
    "serve.chaos": ("resilient serving under the default fault plan (seed 42)",
                    _serve_chaos),
    "serve.plain": ("traced serving of the standard query mix, no faults",
                    _serve_plain),
    "serve.streaming": ("chunked streaming sessions via the asyncio gateway "
                        "(seed 0)", _serve_streaming),
    "serve.cluster": ("sharded replicas behind the router, live + model replay "
                      "(seed 7)", _serve_cluster),
    "obs.rollup": ("windowed rollups + sampling + SLO burn over a pinned replay "
                   "(seed 11)", _obs_rollup),
    "obs.cost": ("joule/dollar ledger with the AI-tax split over a pinned replay "
                 "(seed 13)", _obs_cost),
}.items()))


# -- running ------------------------------------------------------------------------


def run_benchmarks(quick: bool = False, tag: str = "dev") -> Dict[str, Any]:
    """Run every benchmark :data:`REPEATS` times."""
    report: Dict[str, Any] = {
        "schema": SCHEMA, "tag": tag, "quick": quick, "benchmarks": {},
    }
    for name, (description, run) in BENCHMARKS.items():
        samples: Dict[str, List[float]] = {}
        for _ in range(REPEATS):
            for metric, value in run(quick).items():
                samples.setdefault(metric, []).append(float(value))
        report["benchmarks"][name] = {
            "description": description,
            "metrics": {
                metric: {"samples": series, "rel_tol": TOLERANCE.get(metric, 0.0)}
                for metric, series in sorted(samples.items())
            },
        }
    return report


def to_json(report: Dict[str, Any]) -> str:
    """Canonical JSON text (sorted keys, indented for reviewable diffs)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def load_report(path: str) -> Dict[str, Any]:
    """Read a bench report JSON file; reject any other schema."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read bench report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path!r} is not valid JSON: {exc}") from None
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != SCHEMA:
        raise ConfigurationError(
            f"{path!r} is not a {SCHEMA} report (schema={schema!r}); "
            f"regenerate it with repro bench --out"
        )
    return report


# -- the gate -----------------------------------------------------------------------


@dataclass(frozen=True)
class GateFinding:
    """One gate violation (or coverage gap) between baseline and current."""

    benchmark: str
    metric: str
    kind: str  #: regression, unstable-baseline, missing-benchmark, missing-metric
    baseline: Optional[float] = None
    current: Optional[float] = None
    message: str = ""


def _off(value: float, reference: float, rel_tol: float) -> bool:
    return abs(value - reference) > rel_tol * max(1.0, abs(reference))


def check_report(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[GateFinding]:
    """Compare a run against a baseline; return findings (empty = gate passes).

    Every repeat of every baseline metric must equal the baseline's value
    within the tolerance the *baseline* records.  A baseline benchmark or
    metric the run lacks is a coverage finding; new benchmarks and metrics
    in the run pass silently (they extend the baseline at its next update).
    """
    findings: List[GateFinding] = []
    current_benchmarks = current.get("benchmarks", {})
    for name, base_entry in sorted(baseline.get("benchmarks", {}).items()):
        entry = current_benchmarks.get(name)
        if entry is None:
            findings.append(GateFinding(
                benchmark=name, metric="", kind="missing-benchmark",
                message=f"benchmark {name!r} in baseline but not in current run",
            ))
            continue
        current_metrics = entry.get("metrics", {})
        for metric, base_metric in sorted(base_entry.get("metrics", {}).items()):
            label = f"{name}.{metric}"
            cur_metric = current_metrics.get(metric)
            if cur_metric is None:
                findings.append(GateFinding(
                    benchmark=name, metric=metric, kind="missing-metric",
                    message=f"{name}: metric {metric!r} disappeared",
                ))
                continue
            rel_tol = float(base_metric.get("rel_tol", 0.0))
            base_samples = base_metric.get("samples")
            cur_samples = cur_metric.get("samples")
            if not base_samples or not cur_samples:
                raise ConfigurationError(f"{label} has no samples")
            base = base_samples[0]
            # A baseline whose own repeats disagree cannot judge anything.
            for kind, verb, samples in (
                ("unstable-baseline", "a baseline repeat has", base_samples),
                ("regression", "got", cur_samples),
            ):
                off = [v for v in samples if _off(v, base, rel_tol)]
                if off:
                    worst = max(off, key=lambda v: abs(v - base))
                    findings.append(GateFinding(
                        benchmark=name, metric=metric, kind=kind,
                        baseline=base, current=worst,
                        message=f"{label}: expected {base:g} (±{rel_tol:g} rel), "
                                f"{verb} {worst:g}",
                    ))
                    break
    return findings


# -- rendering ----------------------------------------------------------------------


def format_findings(findings: Sequence[GateFinding]) -> str:
    """Gate verdict text: one line per finding, or the all-clear."""
    if not findings:
        return "bench gate: ok (every metric replayed its baseline)"
    return "\n".join([f"bench gate: {len(findings)} finding(s)"]
                     + [f"  [{f.kind}] {f.message}" for f in findings])
