"""Benchmark registry, schema-versioned reports, and the regression gate.

``repro bench`` is the repo's durable performance trajectory: a registry
of pinned-seed benchmarks (the seven Sirius Suite kernels plus traced
serving runs), a schema-versioned JSON report (``BENCH_<tag>.json`` at
the repo root), and a gate (``repro bench --check BASELINE.json``) that
compares a fresh run against a committed baseline and exits non-zero on
regressions.

**No wall clocks in decisions.**  Measured wall seconds and latency
percentiles are recorded — they are the trajectory humans read — but the
gate only compares *gated* metrics, and every gated metric is
deterministic under the benchmark's pinned seed: work counters (flops,
bytes, items — :mod:`repro.obs.counters`), result checksums, injected
virtual latency, span counts, and outcome counts.  A CI runner's noisy
clock therefore cannot flake the gate; a changed checksum or a doubled
flop count fails it exactly.

**Noise-aware rule.**  Each benchmark runs ``repeats`` times; the gate
compares the *best* of those samples (min for lower-is-better, max for
higher-is-better) and flags only when the best crosses the baseline's
best by more than the metric's relative tolerance — the standard
min-of-k + relative-threshold rule, which a noisy-but-flat trajectory
must pass.  For ``better="equal"`` metrics (checksums, counters) the rule
degenerates to a tolerance band around the baseline value that *every*
current repeat must sit inside: a fingerprint that differs between
repeats is itself the regression.

See ``docs/BENCHMARKING.md`` for the JSON schema and baseline-update
workflow.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import format_table
from repro.errors import ConfigurationError
from repro.obs.context import use_tracer
from repro.obs.counters import aggregate_counters, kernel_counters
from repro.obs.metrics import percentile
from repro.obs.trace import Tracer, collect_spans

#: Bumped on any incompatible change to the report JSON layout.
SCHEMA = "repro.bench/v1"
SCHEMA_VERSION = 1

#: Directions a gated metric can prefer.
LOWER, HIGHER, EQUAL = "lower", "higher", "equal"


@dataclass(frozen=True)
class MetricSpec:
    """How the gate treats one benchmark metric."""

    gated: bool = True
    better: str = EQUAL      #: "lower" | "higher" | "equal"
    rel_tol: float = 0.0     #: relative threshold before flagging

    def __post_init__(self) -> None:
        if self.better not in (LOWER, HIGHER, EQUAL):
            raise ConfigurationError(f"unknown metric direction {self.better!r}")
        if self.rel_tol < 0:
            raise ConfigurationError("rel_tol must be >= 0")


#: Informational metric (recorded, never gated).
INFO = MetricSpec(gated=False)
#: Deterministic counter/count: must match the baseline exactly.
EXACT = MetricSpec(gated=True, better=EQUAL, rel_tol=0.0)
#: Float checksum: equal up to accumulated rounding across BLAS builds.
CHECKSUM = MetricSpec(gated=True, better=EQUAL, rel_tol=1e-6)


class Benchmark:
    """One registered benchmark: pinned seeds, deterministic gated metrics.

    Subclasses define :meth:`prepare` (once per invocation, untimed) and
    :meth:`run` (once per repeat, timed by the harness), and declare
    ``metric_specs`` for every gated metric :meth:`run` returns.  Metrics
    without a spec are recorded as informational.
    """

    name: str = ""
    description: str = ""
    metric_specs: Dict[str, MetricSpec] = {}

    def prepare(self, quick: bool) -> Any:
        """Build inputs/models (untimed; not part of any metric)."""
        return None

    def run(self, state: Any, quick: bool) -> Dict[str, float]:
        """Execute once; return metric values (floats/ints only)."""
        raise NotImplementedError

    def spec_for(self, metric: str) -> MetricSpec:
        return self.metric_specs.get(metric, INFO)


def fingerprint(text: str) -> int:
    """A JSON-safe integer digest of a deterministic text artifact."""
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


# -- the registry -------------------------------------------------------------------

_REGISTRY: Dict[str, Benchmark] = {}


def register(benchmark: Benchmark) -> Benchmark:
    """Add a benchmark to the registry (name must be unique)."""
    if not benchmark.name:
        raise ConfigurationError("benchmark must have a name")
    if benchmark.name in _REGISTRY:
        raise ConfigurationError(f"duplicate benchmark {benchmark.name!r}")
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


def all_benchmarks() -> Tuple[Benchmark, ...]:
    """Registered benchmarks in name order (populates the registry)."""
    _populate()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def benchmarks_matching(filters: Sequence[str]) -> Tuple[Benchmark, ...]:
    """Benchmarks whose name contains any of ``filters`` (all if empty)."""
    benchmarks = all_benchmarks()
    if not filters:
        return benchmarks
    chosen = tuple(
        b for b in benchmarks if any(term in b.name for term in filters)
    )
    if not chosen:
        raise ConfigurationError(
            f"no benchmark matches {list(filters)!r}; "
            f"available: {', '.join(b.name for b in benchmarks)}"
        )
    return chosen


# -- built-in benchmarks ------------------------------------------------------------


class KernelBenchmark(Benchmark):
    """One Sirius Suite kernel under a tracer: counters + checksum.

    Gated metrics are the kernel-span work counters (exact: they are pure
    functions of the pinned input shapes) and the result checksum (equal
    to a small relative tolerance, since dense kernels sum through BLAS).
    """

    metric_specs = {
        "flops": EXACT,
        "bytes": EXACT,
        "items": EXACT,
        "invocations": EXACT,
        "checksum": CHECKSUM,
    }

    def __init__(self, kernel_name: str, scale: float, quick_scale: float):
        self.name = f"suite.{kernel_name}"
        self.kernel_name = kernel_name
        self.scale = scale
        self.quick_scale = quick_scale
        self.description = f"Sirius Suite kernel {kernel_name!r} (single-threaded)"

    def prepare(self, quick: bool) -> Any:
        from repro.suite import kernel_by_name

        kernel = kernel_by_name(self.kernel_name)
        scale = self.quick_scale if quick else self.scale
        return kernel, kernel.prepare(scale)

    def run(self, state: Any, quick: bool) -> Dict[str, float]:
        kernel, inputs = state
        tracer = Tracer(seed=0)
        with use_tracer(tracer):
            with tracer.trace(0, name="bench"):
                outcome = kernel.execute(inputs=inputs)
        counters = kernel_counters(tracer.spans).get(self.kernel_name)
        if counters is None:
            raise ConfigurationError(
                f"kernel {self.kernel_name!r} emitted no kernel span"
            )
        return {
            "checksum": outcome.checksum,
            **counters.as_dict(),
        }


class _ServeBenchmark(Benchmark):
    """Shared plumbing for traced serving benchmarks over the real pipeline."""

    #: One pipeline per process, shared across serve benchmarks and repeats
    #: (building it trains models — expensive, and not what we measure).
    _shared: Dict[str, Any] = {}

    def prepare(self, quick: bool) -> Any:
        """The shared pipeline and this size's slice of the query mix."""
        key = "quick" if quick else "full"
        if key not in self._shared:
            from repro.core import InputSet, SiriusPipeline

            pipeline = self._shared.get("pipeline")
            if pipeline is None:
                pipeline = SiriusPipeline.build()
                self._shared["pipeline"] = pipeline
            queries = InputSet.build().all_queries
            n = 6 if quick else 12
            self._shared[key] = (pipeline, [queries[i % len(queries)] for i in range(n)])
        return self._shared[key]


#: Gate specs of the outcome split, in ``outcome_counts`` order.
_OUTCOME_SPECS = {"ok": EXACT, "degraded": EXACT, "failed": EXACT}


def _outcome_metrics(responses) -> Dict[str, int]:
    """The ``ok`` / ``degraded`` / ``failed`` gate metrics of a stream."""
    from repro.serving.identity import outcome_counts

    return dict(zip(_OUTCOME_SPECS, outcome_counts(responses)))


class ServeChaosBenchmark(_ServeBenchmark):
    """Seeded chaos serving: replay fingerprint, virtual latency, outcomes.

    Every gated metric is deterministic under the chaos seed: the
    timing-stripped span-forest fingerprint, total injected virtual
    latency, span/outcome counts, and the aggregate work counters the
    service hot paths record.
    """

    name = "serve.chaos"
    description = "resilient serving under the default fault plan (seed 42)"
    seed = 42
    metric_specs = {
        "forest_fingerprint": EXACT,
        "virtual_seconds": MetricSpec(gated=True, better=EQUAL, rel_tol=1e-9),
        "spans": EXACT,
        **_OUTCOME_SPECS,
        "flops": EXACT,
        "bytes": EXACT,
    }

    def run(self, state: Any, quick: bool) -> Dict[str, float]:
        from repro.obs.critical_path import analyze_forest
        from repro.serving import (
            default_chaos_plan,
            default_policies,
            resilient_executor,
        )
        from repro.serving.identity import span_fingerprint

        pipeline, queries = state
        executor = resilient_executor(
            pipeline.serving, default_policies(seed=self.seed),
            default_chaos_plan(self.seed),
        )
        executor.trace_seed = self.seed
        responses = executor.run_all(queries, on_error="degrade")
        spans = collect_spans(responses)
        analyses = analyze_forest(spans)
        counters = aggregate_counters(spans)
        return {
            "forest_fingerprint": fingerprint(span_fingerprint(responses)),
            "virtual_seconds": sum(a.virtual_seconds for a in analyses),
            "spans": len(spans),
            **_outcome_metrics(responses),
            "flops": counters.flops,
            "bytes": counters.bytes,
        }


class ServePlainBenchmark(_ServeBenchmark):
    """Traced fault-free serving: span structure, counters, answer digest."""

    name = "serve.plain"
    description = "traced serving of the standard query mix, no faults"
    metric_specs = {
        "answer_fingerprint": EXACT,
        "spans": EXACT,
        "flops": EXACT,
        "bytes": EXACT,
        "items": EXACT,
    }

    def run(self, state: Any, quick: bool) -> Dict[str, float]:
        pipeline, queries = state
        executor = pipeline.serving
        executor.trace_seed = 0
        try:
            responses = executor.run_all(queries)
        finally:
            executor.trace_seed = None
        spans = collect_spans(responses)
        counters = aggregate_counters(spans)
        answers = "\n".join(r.answer for r in responses)
        return {
            "answer_fingerprint": fingerprint(answers),
            "spans": len(spans),
            "flops": counters.flops,
            "bytes": counters.bytes,
            "items": counters.items,
        }


class ServeStreamingBenchmark(_ServeBenchmark):
    """Chunked sessions through the asyncio gateway: streaming determinism.

    Audio arrives in 150 ms chunks, all sessions interleaved round-robin;
    partial hypotheses are polled on every feed.  Partial emission is a
    pure function of the audio and the chunking (each session's bouts are
    lock-serialized, so poll *k* always sees exactly the frames chunk *k*
    decoded), which makes the partial/endpoint/late-chunk counts and the
    span forest gateable.  ``single_chunk_equivalent`` is the refactor's
    correctness anchor: a one-chunk session replayed through
    ``run(precomputed=...)`` must match plain ``run()`` byte-for-byte.
    """

    name = "serve.streaming"
    description = "chunked streaming sessions via the asyncio gateway (seed 0)"
    metric_specs = {
        "answer_fingerprint": EXACT,
        "transcript_fingerprint": EXACT,
        "partial_fingerprint": EXACT,
        "partials": EXACT,
        "partial_spans": EXACT,
        "spans": EXACT,
        "endpointed": EXACT,
        "late_chunks": EXACT,
        "single_chunk_equivalent": EXACT,
        **_OUTCOME_SPECS,
    }

    def run(self, state: Any, quick: bool) -> Dict[str, float]:
        from repro.obs.timeseries import TTFP_METRIC, RollupStore
        from repro.obs.trace import PARTIAL, sort_key
        from repro.serving import serve_streams
        from repro.serving.identity import single_chunk_equivalent

        pipeline, queries = state
        executor = pipeline.serving
        executor.trace_seed = 0
        store = RollupStore()
        saved_metrics = executor.metrics
        executor.metrics = store
        try:
            report = serve_streams(executor, queries, chunk_seconds=0.15)
            equivalent = all(
                single_chunk_equivalent(executor, query, ordinal)
                for ordinal, query in enumerate(queries)
            )
        finally:
            executor.trace_seed = None
            executor.metrics = saved_metrics
        spans = collect_spans(report.responses)
        partial_spans = [s for s in spans if s.kind == PARTIAL]
        partial_texts = "\n".join(
            f"{s.trace_id}:{s.attributes.get('partial_index')}:"
            f"{s.attributes.get('chars')}"
            for s in sorted(partial_spans, key=sort_key)
        )
        ttfp = store.snapshot().merged_panel(TTFP_METRIC)
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
            "ttfp_p50_ms": ttfp.percentile(50) * 1000 if ttfp else 0.0,
        }


class ServeClusterBenchmark(_ServeBenchmark):
    """Routed sharded fleet, live and in model replay: cluster determinism.

    The live half serves the query mix through sharded replica executors
    behind the power-of-two router with seeded admission; gated metrics
    are the timing-stripped span-forest fingerprint (router spans
    included), the outcome and placement-table fingerprints, and the
    conservation counts.  The model half replays a pinned Poisson stream
    against the virtual-time fleet with an autoscaler and gates the full
    outcome-stream digest — every routing, admission, service-draw, and
    scaling decision, byte-exact.
    """

    name = "serve.cluster"
    description = "sharded replicas behind the router, live + model replay (seed 7)"
    seed = 7
    metric_specs = {
        "forest_fingerprint": EXACT,
        "outcome_fingerprint": EXACT,
        "routes_fingerprint": EXACT,
        "replay_digest": EXACT,
        "spans": EXACT,
        "router_spans": EXACT,
        "rejected": EXACT,
        **_OUTCOME_SPECS,
        "replay_rejected": EXACT,
        "replay_scaleups": EXACT,
    }

    def prepare(self, quick: bool) -> Any:
        from repro.serving.cluster import AdmissionControl, build_cluster

        pipeline, queries = super().prepare(quick)
        key = f"cluster-{'quick' if quick else 'full'}"
        if key not in self._shared:
            cluster = build_cluster(
                pipeline,
                n_replicas=3,
                n_shards=2,
                policy="power-of-two",
                seed=self.seed,
                admission=AdmissionControl(drop_rate=0.2, seed=self.seed),
                trace_seed=self.seed,
            )
            cluster.warmup()
            self._shared[key] = cluster
        return self._shared[key], queries

    def run(self, state: Any, quick: bool) -> Dict[str, float]:
        from repro.obs.trace import ROUTER
        from repro.serving.cluster import (
            AdmissionControl,
            AutoscalerPolicy,
            seeded_replay,
        )
        from repro.serving.cluster.autoscaler import SCALE_UP
        from repro.serving.identity import outcome_fingerprint, span_fingerprint

        cluster, queries = state
        responses = cluster.run_all(queries)
        routes = cluster.plan_routes(len(queries))
        spans = collect_spans(responses)
        # The pinned serialisation of the outcome tuple (baseline hashes it).
        outcomes = "\n".join(
            f"{kind}:{transcript}:{answer}:{image}:{int(degraded)}:{list(failures)}"
            for kind, transcript, answer, image, degraded, failures
            in outcome_fingerprint(responses)
        )

        # Model replay under pinned parameters — nothing measured feeds it,
        # so the full decision stream is gateable byte-exact.
        mean_service = 0.01
        replay = seeded_replay(
            "poisson", 0.8 / mean_service * 2, mean_service,
            2_000 if quick else 10_000,
            seed=self.seed,
            policy="power-of-two",
            n_replicas=2,
            admission=AdmissionControl(max_depth=40, seed=self.seed),
            autoscaler=AutoscalerPolicy(slo_p99=0.05, max_replicas=6),
            tick_seconds=2.0,
        )
        return {
            "forest_fingerprint": fingerprint(span_fingerprint(responses)),
            "outcome_fingerprint": fingerprint(outcomes),
            "routes_fingerprint": fingerprint(
                "\n".join(repr(route.key()) for route in routes)
            ),
            "replay_digest": fingerprint(replay.digest()),
            "spans": len(spans),
            "router_spans": sum(1 for s in spans if s.kind == ROUTER),
            "rejected": sum(1 for r in responses if "ROUTER" in r.failures),
            **_outcome_metrics(responses),
            "replay_rejected": replay.n_rejected,
            "replay_scaleups": sum(
                1 for d in replay.decisions if d.action == SCALE_UP
            ),
            "replay_p99_ms": replay.p99_response * 1000,
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


class ObsRollupBenchmark(Benchmark):
    """The fleet telemetry plane under a pinned-seed replay.

    Replays a seeded arrival stream with the autoscaler engaged, then
    gates the full telemetry stack end to end: the canonical-JSON
    fingerprint of the windowed rollup snapshot, the rollup cell counts,
    the trace-sampling verdict-stream fingerprint, the kept/total trace
    split, and the burn-rate alert count.  Everything lives on the
    virtual clock, so a single drifted float or reordered cell fails the
    gate exactly.
    """

    name = "obs.rollup"
    description = "windowed rollups + sampling + SLO burn over a pinned replay (seed 11)"
    seed = 11
    metric_specs = {
        "rollup_fingerprint": EXACT,
        "counter_cells": EXACT,
        "panel_cells": EXACT,
        "windows": EXACT,
        "verdict_fingerprint": EXACT,
        "kept_traces": EXACT,
        "total_traces": EXACT,
        "kept_spans": EXACT,
        "total_spans": EXACT,
        "alert_firings": EXACT,
    }

    def run(self, state: Any, quick: bool) -> Dict[str, float]:
        from repro.obs.fleet_report import report_from_replay, report_to_json
        from repro.obs.sampling import TraceSampler, summarize_outcomes

        result = _pinned_replay(self.seed, quick)
        report = report_from_replay(result, trace_seed=self.seed)
        rollups = report.rollups
        sampler = TraceSampler(head_rate=0.1, seed=0, top_k=8)
        verdicts = sampler.verdicts(
            summarize_outcomes(result.outcomes, trace_seed=self.seed)
        )
        return {
            "rollup_fingerprint": fingerprint(report_to_json(report)),
            "counter_cells": len(rollups.counters),
            "panel_cells": len(rollups.panels),
            "windows": len(rollups.windows()),
            "verdict_fingerprint": fingerprint(
                "\n".join(
                    f"{v.trace_id}:{int(v.kept)}:{v.reason}" for v in verdicts
                )
            ),
            "kept_traces": report.sampling.kept_traces,
            "total_traces": report.sampling.total_traces,
            "kept_spans": report.sampling.kept_spans,
            "total_spans": report.sampling.total_spans,
            "alert_firings": sum(len(s.firings) for s in report.slos),
        }


class ObsCostBenchmark(Benchmark):
    """The cost ledger under a pinned-seed replay.

    Replays a seeded arrival stream, folds it into the joule/dollar
    ledger, then gates the canonical-JSON and text fingerprints of the
    report plus the headline integers.  Every number is a pure function
    of the seeds and the Table 6/7 constants, so a drifted watt, roofline
    or rounding point fails the gate exactly.
    """

    name = "obs.cost"
    description = "joule/dollar ledger with the AI-tax split over a pinned replay (seed 13)"
    seed = 13
    metric_specs = {
        "report_fingerprint": EXACT,
        "ledger_fingerprint": EXACT,
        "total_microjoules": EXACT,
        "tax_microjoules": EXACT,
        "queries": EXACT,
    }

    def run(self, state: Any, quick: bool) -> Dict[str, float]:
        from repro.obs.cost import (
            ledger_from_replay,
            render_cost_report,
            report_to_json,
        )

        ledger = ledger_from_replay(_pinned_replay(self.seed, quick))
        return {
            "report_fingerprint": fingerprint(report_to_json(ledger)),
            "ledger_fingerprint": fingerprint(render_cost_report(ledger)),
            "total_microjoules": ledger.total_microjoules,
            "tax_microjoules": ledger.tax_microjoules(),
            "queries": len(ledger.queries),
        }


def _populate() -> None:
    if _REGISTRY:
        return
    for kernel_name in ("gmm", "dnn", "stemmer", "regex", "crf", "fe", "fd"):
        register(KernelBenchmark(kernel_name, scale=0.5, quick_scale=0.1))
    register(ServeChaosBenchmark())
    register(ServePlainBenchmark())
    register(ServeStreamingBenchmark())
    register(ServeClusterBenchmark())
    register(ObsRollupBenchmark())
    register(ObsCostBenchmark())


# -- running ------------------------------------------------------------------------


def run_benchmarks(
    filters: Sequence[str] = (),
    quick: bool = False,
    repeats: int = 3,
    tag: str = "dev",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run (a filtered subset of) the registry; return the report dict.

    Wall seconds per repeat give the informational mean/p50/p95/p99;
    metric samples are collected per repeat so the gate can apply min-of-k.
    """
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "tag": tag,
        "quick": quick,
        "repeats": repeats,
        "benchmarks": {},
    }
    for benchmark in benchmarks_matching(filters):
        if progress is not None:
            progress(f"bench {benchmark.name} ({repeats} repeats)")
        state = benchmark.prepare(quick)
        wall: List[float] = []
        samples: Dict[str, List[float]] = {}
        for _ in range(repeats):
            start = time.perf_counter()
            values = benchmark.run(state, quick)
            wall.append(time.perf_counter() - start)
            for metric, value in values.items():
                samples.setdefault(metric, []).append(float(value))
        metrics = {
            metric: {
                "samples": series,
                **_spec_fields(benchmark.spec_for(metric)),
            }
            for metric, series in sorted(samples.items())
        }
        report["benchmarks"][benchmark.name] = {
            "description": benchmark.description,
            "wall_seconds": sorted(wall),
            "latency_ms": {
                "mean": math.fsum(wall) / repeats * 1000,
                "p50": percentile(wall, 50) * 1000,
                "p95": percentile(wall, 95) * 1000,
                "p99": percentile(wall, 99) * 1000,
            },
            "metrics": metrics,
        }
    return report


def _spec_fields(spec: MetricSpec) -> Dict[str, Any]:
    return {"gated": spec.gated, "better": spec.better, "rel_tol": spec.rel_tol}


def to_json(report: Dict[str, Any]) -> str:
    """Canonical JSON text (sorted keys, indented for reviewable diffs)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def load_report(path: str) -> Dict[str, Any]:
    """Read and validate a bench report JSON file."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read bench report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path!r} is not valid JSON: {exc}") from None
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"{path!r} is not a {SCHEMA} report "
            f"(schema={report.get('schema') if isinstance(report, dict) else None!r})"
        )
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"{path!r} has schema_version {report.get('schema_version')!r}; "
            f"this build reads {SCHEMA_VERSION} — regenerate the baseline"
        )
    return report


# -- the gate -----------------------------------------------------------------------


@dataclass(frozen=True)
class GateFinding:
    """One gate violation (or coverage gap) between baseline and current."""

    benchmark: str
    metric: str
    kind: str                 #: "regression" | "missing-benchmark" | "missing-metric"
    baseline: Optional[float] = None
    current: Optional[float] = None
    message: str = ""


def _best(samples: Sequence[float], better: str) -> float:
    if not samples:
        raise ConfigurationError("metric has no samples")
    if better == HIGHER:
        return max(samples)
    if better == LOWER:
        return min(samples)
    return min(samples)  # equal: canonical representative


def check_report(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[GateFinding]:
    """Compare two reports; return regressions (empty list = gate passes).

    Only gated metrics participate.  The gate direction comes from the
    *baseline* spec, so a PR that silently un-gates a metric in code still
    gets checked against what the committed baseline promised.  Benchmarks
    or gated metrics present in the baseline but absent from the current
    run are coverage regressions and fail the gate too; new benchmarks in
    the current run pass silently (they extend the baseline next update).
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
            if not base_metric.get("gated"):
                continue
            cur_metric = current_metrics.get(metric)
            if cur_metric is None:
                findings.append(GateFinding(
                    benchmark=name, metric=metric, kind="missing-metric",
                    message=f"{name}: gated metric {metric!r} disappeared",
                ))
                continue
            better = base_metric.get("better", EQUAL)
            rel_tol = float(base_metric.get("rel_tol", 0.0))
            base_best = _best(base_metric.get("samples", ()), better)
            cur_samples = cur_metric.get("samples", ())
            cur_best = _best(cur_samples, better)
            if better == EQUAL:  # judge the repeat furthest from the baseline
                cur_best = max(cur_samples, key=lambda v: abs(v - base_best))
            regressed, message = _compare(base_best, cur_best, better, rel_tol)
            if regressed:
                findings.append(GateFinding(
                    benchmark=name, metric=metric, kind="regression",
                    baseline=base_best, current=cur_best,
                    message=f"{name}.{metric}: {message}",
                ))
    return findings


def _compare(
    base: float, cur: float, better: str, rel_tol: float
) -> Tuple[bool, str]:
    if better == LOWER:
        limit = base * (1.0 + rel_tol)
        if cur > limit:
            return True, (
                f"best-of-k {cur:g} exceeds baseline {base:g} "
                f"by more than {rel_tol:.1%}"
            )
    elif better == HIGHER:
        limit = base * (1.0 - rel_tol)
        if cur < limit:
            return True, (
                f"best-of-k {cur:g} fell below baseline {base:g} "
                f"by more than {rel_tol:.1%}"
            )
    else:  # EQUAL
        if abs(cur - base) > rel_tol * max(1.0, abs(base)):
            return True, f"expected {base:g} (±{rel_tol:g} rel), got {cur:g}"
    return False, ""


# -- rendering ----------------------------------------------------------------------


def format_report(report: Dict[str, Any]) -> str:
    """Human table for ``repro bench run`` without ``--json``."""
    from repro.obs.counters import format_count

    rows = []
    for name, entry in sorted(report["benchmarks"].items()):
        metrics = entry.get("metrics", {})

        def value(key: str) -> float:
            series = metrics.get(key, {}).get("samples", ())
            return series[0] if series else 0.0

        flops, mem = value("flops"), value("bytes")
        rows.append([
            name,
            str(len(entry.get("wall_seconds", ()))),
            f"{entry['latency_ms']['p50']:.1f}",
            f"{entry['latency_ms']['p99']:.1f}",
            format_count(flops),
            format_count(mem),
            f"{flops / mem:.2f}" if mem else "-",
        ])
    title = (
        f"repro bench (tag={report['tag']}"
        + (", quick" if report.get("quick") else "")
        + f", repeats={report['repeats']})"
    )
    return format_table(
        title,
        ["Benchmark", "Runs", "p50 (ms)", "p99 (ms)", "Flops", "Bytes", "F/B"],
        rows,
    )


def format_findings(findings: Sequence[GateFinding]) -> str:
    """Gate verdict text: one line per finding, or the all-clear."""
    if not findings:
        return "bench gate: ok (no gated metric regressed)"
    lines = [f"bench gate: {len(findings)} finding(s)"]
    for finding in findings:
        lines.append(f"  [{finding.kind}] {finding.message}")
    return "\n".join(lines)
