"""Command-line interface for the Sirius reproduction.

Subcommands::

    repro query "what is the capital of italy" [--image-scene 1]
    repro demo [--asr-backend dnn] [--limit 10]
    repro suite [--scale 0.25] [--workers 4]
    repro serve-bench [--queries 16] [--backend process] [--workers 2]
    repro serve-bench --trace spans.jsonl --chrome-trace trace.json --metrics
    repro serve-bench --chaos 42 [--queries 16] [--trace spans.jsonl]
    repro serve-bench --streaming [--queries 16] [--chunk-ms 100] [--trace spans.jsonl]
    repro cluster-bench [--smoke] [--replicas 3] [--shards 2] [--policy power-of-two]
    repro trace-report spans.jsonl [--limit 3] [--chrome trace.json] [--mm1 0.7]
    repro trace-report spans.jsonl --critical-path [--tail-quantile 0.99] --roofline
    repro bench [run] [--quick] [--json] [--tag pr17] [--filter suite.]
    repro bench --check BASELINE.json   (or: repro bench check BASELINE.json)
    repro bench list
    repro design
    repro wer [--noise 0.0 0.05 0.1]
    repro lint [paths ...] [--format json] [--fail-on warning]

Run as ``python -m repro.cli <subcommand>`` (or the ``sirius-repro``
console script once installed).

Exit codes: 0 on success, 1 when ``lint`` reports findings, 2 when a
command fails with a :class:`repro.errors.SiriusError` (the error prints
as ``error[CODE]: message`` on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.asr import Synthesizer
    from repro.core import IPAQuery, SiriusPipeline
    from repro.imm.image import SceneGenerator

    pipeline = SiriusPipeline.build(asr_backend=args.asr_backend)
    image = None
    if args.image_scene is not None:
        image = SceneGenerator().query_for(args.image_scene)
    query = IPAQuery(
        audio=Synthesizer(seed=args.seed).synthesize(args.text),
        image=image,
        text=args.text,
    )
    response = pipeline.process(query)
    print(response.summary())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import InputSet, SiriusPipeline

    pipeline = SiriusPipeline.build(asr_backend=args.asr_backend)
    inputs = InputSet.build()
    queries = inputs.all_queries[: args.limit] if args.limit else inputs.all_queries
    correct = 0
    for query in queries:
        response = pipeline.process(query)
        ok = response.transcript == query.text and (
            not query.expected_answer
            or query.expected_answer in response.answer.lower()
        )
        correct += ok
        print(("  " if ok else "! ") + response.summary())
    print(f"\n{correct}/{len(queries)} fully correct")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    import contextlib

    from repro.analysis import format_table
    from repro.obs.context import use_tracer
    from repro.obs.trace import Tracer
    from repro.suite import all_kernels

    tracer = Tracer(seed=0) if args.trace else None
    rows = []
    with use_tracer(tracer) if tracer else contextlib.nullcontext():
        for ordinal, kernel in enumerate(all_kernels()):
            inputs = kernel.prepare(args.scale)
            run_span = (
                tracer.trace(ordinal, name=f"suite:{kernel.name}")
                if tracer else contextlib.nullcontext()
            )
            with run_span:
                base = kernel.execute(inputs=inputs)
                port = kernel.execute(inputs=inputs, workers=args.workers,
                                      use_processes=args.processes)
            rows.append(
                [kernel.service, kernel.name, base.items,
                 f"{base.seconds * 1000:.1f}", f"{port.seconds * 1000:.1f}"]
            )
    if tracer is not None:
        from repro.obs.export import write_jsonl

        write_jsonl(tracer.spans, args.trace)
        print(f"wrote {len(tracer.spans)} spans to {args.trace}")
    print(format_table(
        f"Sirius Suite (scale={args.scale})",
        ["Service", "Kernel", "Items", "Baseline (ms)",
         f"{args.workers}-{'proc' if args.processes else 'thread'} (ms)"],
        rows,
    ))
    return 0


def _verdict(divergence: Optional[str]) -> str:
    """``ok``, or ``FAILED`` plus where the two runs first differ."""
    return "ok" if divergence is None else f"FAILED at {divergence}"


def _export_spans(spans, trace=None, chrome=None, timing: bool = True) -> None:
    """Write the JSONL (``trace``) and Chrome (``chrome``) exports asked for."""
    from repro.obs import write_chrome_trace, write_jsonl

    if trace:
        n_spans = write_jsonl(spans, trace, timing=timing)
        kind = "" if timing else " (deterministic export)"
        print(f"wrote {n_spans} spans{kind} to {trace}", file=sys.stderr)
    if chrome:
        n_events = write_chrome_trace(spans, chrome)
        print(f"wrote {n_events} trace events to {chrome}", file=sys.stderr)


def _cmd_chaos_bench(args: argparse.Namespace, pipeline, queries) -> int:
    """``serve-bench --chaos SEED``: availability under injected failures.

    Runs the stream twice through *freshly wrapped* resilient services (same
    seed, fresh breaker state) and checks the outcomes replay identically —
    the determinism contract the chaos test suite locks down.  With
    ``--trace`` the runs are traced too, the span forests are compared
    (IDs, parentage, attributes — wall times excluded), and the first run's
    *deterministic* (timing-stripped) export is written, so two invocations
    with the same seed produce byte-identical trace files.
    """
    from collections import Counter

    from repro.analysis import format_table
    from repro.obs import collect_spans
    from repro.serving import default_chaos_plan, default_policies, resilient_executor
    from repro.serving.identity import outcome_counts, replay_divergence

    plan = default_chaos_plan(args.chaos)
    tracing = bool(args.trace or args.chrome_trace or args.metrics)

    def run_once():
        executor = resilient_executor(
            pipeline.serving, default_policies(seed=args.chaos), plan
        )
        if tracing:
            executor.trace_seed = args.chaos
        executor.warmup()
        return executor.run_all(queries, on_error="degrade")

    first = run_once()
    second = run_once()
    # Untraced runs carry no spans, so their span forests trivially agree.
    outcome_drift, span_drift = replay_divergence(first, second)
    if tracing:
        forest = collect_spans(first)
        _export_spans(forest, args.trace, args.chrome_trace, timing=False)
        if args.metrics:
            from repro.obs import format_service_summary, metrics_from_spans

            print(format_service_summary(
                metrics_from_spans(forest),
                title=f"Chaos latency (seed={args.chaos}, from spans)",
            ))

    n = len(first)
    n_ok, n_degraded, n_failed = outcome_counts(first)
    codes = Counter(
        f"{label}:{code}" for r in first for label, code in sorted(r.failures.items())
    )
    rows = [
        ["ok (full quality)", str(n_ok), f"{n_ok / n:.3f}"],
        ["degraded", str(n_degraded), f"{n_degraded / n:.3f}"],
        ["failed", str(n_failed), f"{n_failed / n:.3f}"],
        ["available (ok+degraded)", str(n_ok + n_degraded),
         f"{(n_ok + n_degraded) / n:.3f}"],
    ]
    print(format_table(
        f"Chaos serving (seed={args.chaos}, {n} queries)",
        ["Outcome", "Queries", "Fraction"], rows,
    ))
    if codes:
        print("failure codes: "
              + ", ".join(f"{key}×{count}" for key, count in sorted(codes.items())))
    print(f"replay determinism: {_verdict(outcome_drift)}")
    if tracing:
        print(f"span replay determinism: {_verdict(span_drift)}")
    return 0 if outcome_drift is None and span_drift is None else 2


def _cmd_streaming_bench(args: argparse.Namespace, pipeline, queries) -> int:
    """``serve-bench --streaming``: the session front door, measured.

    Drives every query through the asyncio gateway in arrival-interleaved
    audio chunks (partials polled on each feed, endpointing armed), then
    checks the streaming-equivalence anchor
    (:func:`repro.serving.identity.single_chunk_equivalent`) for every
    query.  Exits 2 when the anchor breaks.
    """
    import time

    from repro.analysis import format_table
    from repro.obs import RollupStore, collect_spans, format_service_summary
    from repro.obs.metrics import percentile
    from repro.serving import serve_streams
    from repro.serving.identity import single_chunk_equivalent

    executor = pipeline.serving
    store = RollupStore()
    executor.trace_seed = 0
    executor.metrics = store
    executor.warmup()
    try:
        start = time.perf_counter()
        report = serve_streams(
            executor,
            queries,
            chunk_seconds=args.chunk_ms / 1000.0,
            max_workers=args.workers if args.workers else 8,
        )
        wall = time.perf_counter() - start
        mismatched = [
            ordinal for ordinal, query in enumerate(queries)
            if not single_chunk_equivalent(executor, query, ordinal)
        ]
    finally:
        executor.trace_seed = None
        executor.metrics = None

    n = len(queries)
    ttfps = [t for t in report.ttfp_seconds if t is not None]
    rows = [
        ["sessions", str(n)],
        ["wall seconds", f"{wall:.2f}"],
        ["sessions/s", f"{n / wall:.2f}"],
        ["partials emitted", str(report.partials_total)],
        ["endpointed early", str(sum(report.endpointed))],
        ["late chunks dropped", str(report.late_chunks)],
        ["ttfp p50 (ms)", f"{percentile(ttfps, 50) * 1000:.1f}"],
        ["ttfp p95 (ms)", f"{percentile(ttfps, 95) * 1000:.1f}"],
    ]
    print(format_table(
        f"Streaming gateway ({n} {args.mix.upper()} queries, "
        f"{args.chunk_ms} ms chunks)",
        ["Metric", "Value"], rows,
    ))
    print(format_service_summary(
        store, title="Streaming latency (TTFP next to e2e)"
    ))
    _export_spans(collect_spans(report.responses), args.trace, args.chrome_trace)

    if mismatched:
        print(f"single-chunk equivalence: FAILED at ordinals {mismatched}")
    else:
        print("single-chunk equivalence: byte-identical "
              f"(fields + deterministic spans, {n} queries)")
    return 2 if mismatched else 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import time

    from repro.analysis import format_table
    from repro.core import InputSet, QueryType, SiriusPipeline

    pipeline = SiriusPipeline.build(asr_backend=args.asr_backend)
    inputs = InputSet.build()
    base = (
        inputs.by_type(QueryType.VOICE_QUERY)
        if args.mix == "vq"
        else inputs.all_queries
    )
    queries = [base[i % len(base)] for i in range(args.queries)]
    if args.chaos is not None:
        return _cmd_chaos_bench(args, pipeline, queries)
    if args.streaming:
        return _cmd_streaming_bench(args, pipeline, queries)
    from repro.obs import RollupStore, collect_spans, format_service_summary

    executor = pipeline.serving
    executor.warmup()

    def timed(**kwargs):
        start = time.perf_counter()
        responses = executor.run_all(queries, **kwargs)
        return time.perf_counter() - start, responses

    sequential_s, sequential = timed()
    # Only the fan-out run is traced/measured: tracing the reference run too
    # would double-count every query in the exported forest and metrics.
    store = RollupStore() if args.metrics else None
    if args.trace or args.chrome_trace:
        executor.trace_seed = 0
    executor.metrics = store
    try:
        fanout_s, fanout = timed(backend=args.backend, workers=args.workers)
    finally:
        executor.trace_seed = None
        executor.metrics = None
    if any(a.answer != b.answer for a, b in zip(sequential, fanout)):
        print("warning: fan-out answers diverge from sequential", file=sys.stderr)
    rows = [
        ["sequential", "serial", f"{sequential_s:.2f}",
         f"{len(queries) / sequential_s:.2f}"],
        ["fan-out", args.backend, f"{fanout_s:.2f}",
         f"{len(queries) / fanout_s:.2f}"],
    ]
    print(format_table(
        f"Serving throughput ({len(queries)} {args.mix.upper()} queries)",
        ["Mode", "Backend", "Seconds", "Queries/s"], rows,
    ))
    print(f"fan-out speedup over sequential: {sequential_s / fanout_s:.2f}x")
    _export_spans(collect_spans(fanout), args.trace, args.chrome_trace)
    if store is not None:
        print(format_service_summary(
            store, title="Serving latency (fan-out run)"
        ))
    return 0


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    """``repro cluster-bench``: the fleet layer, live and at model scale.

    Two halves, both determinism-checked:

    1. **Live fleet** — a few real queries through sharded replica
       executors behind the router, run *twice* (and across backends) to
       verify outcome and timing-stripped-span byte-identity, with the
       router visible as its own critical-path stage.
    2. **Model replay** — an open-loop seeded arrival stream (50 k queries
       in ``--smoke``) through one virtual-time replica, with exponential
       and with measured-histogram service at matched utilization,
       compared against the analytic M/M/1 tail, then extrapolated to a
       million-query hour.

    Exits 2 if any determinism check fails.
    """
    from repro.analysis import format_table
    from repro.core import InputSet, SiriusPipeline
    from repro.datacenter.arrivals import make_process
    from repro.datacenter.queueing import mm1_percentile
    from repro.datacenter.simulation import histogram_sampler
    from repro.obs import RollupStore, collect_spans, format_critical_path_report
    from repro.obs.timeseries import DEPTH_METRIC, E2E_METRIC, REJECTED_METRIC
    from repro.serving.cluster import (
        AdmissionControl,
        build_cluster,
        extrapolate_fleet,
        replay_cluster,
        seeded_replay,
    )
    from repro.serving.identity import outcome_counts, replay_divergence

    if args.smoke:
        args.queries = min(args.queries, 50_000)
        args.live = min(args.live, 6)

    pipeline = SiriusPipeline.build()
    inputs = InputSet.build()
    live_queries = [
        inputs.all_queries[i % len(inputs.all_queries)] for i in range(args.live)
    ]

    # -- live fleet ---------------------------------------------------------
    metrics, rollups = RollupStore(), RollupStore()
    admission = (
        AdmissionControl(drop_rate=args.drop_rate, seed=args.seed)
        if args.drop_rate > 0
        else None
    )
    cluster = build_cluster(
        pipeline,
        n_replicas=args.replicas,
        n_shards=args.shards,
        policy=args.policy,
        seed=args.seed,
        admission=admission,
        metrics=metrics,
        trace_seed=args.seed,
        rollups=rollups,
    )
    cluster.warmup()
    first = cluster.run_all(live_queries, backend=args.backend)
    second = cluster.run_all(live_queries, backend=args.backend)
    outcome_drift, span_drift = replay_divergence(first, second)

    n_ok, n_degraded, n_failed = outcome_counts(first)
    routed = rollups.snapshot()
    rows = [
        ["queries", str(len(first))],
        ["replicas x shards", f"{cluster.n_replicas} x {args.shards}"],
        ["policy", cluster.policy.name],
        ["ok / degraded / failed", f"{n_ok} / {n_degraded} / {n_failed}"],
        ["rejected (admission)",
         str(routed.counter_total(REJECTED_METRIC))],
        ["mean queue depth seen", f"{routed.merged_panel(DEPTH_METRIC).mean:.2f}"],
    ]
    print(format_table(
        f"Live fleet (seed={args.seed}, backend={args.backend})",
        ["Metric", "Value"], rows,
    ))
    print(f"outcome replay determinism: {_verdict(outcome_drift)}")
    print(f"span replay determinism:    {_verdict(span_drift)}")
    print()
    print(format_critical_path_report(collect_spans(first)))

    # -- model replay vs analytic M/M/1 ------------------------------------
    e2e = metrics.snapshot().merged_panel(E2E_METRIC)
    mean_service = max(e2e.mean, 1e-6)
    load = args.load
    rate = load / mean_service  # one-replica parameterization

    def exponential_replay():
        return seeded_replay(
            args.arrivals, rate, mean_service, args.queries, seed=args.seed
        )

    analytic_p99 = mm1_percentile(mean_service, load, 99.0)
    exp_replay = exponential_replay()
    digest_ok = exp_replay.digest() == exponential_replay().digest()
    measured_replay = replay_cluster(
        make_process(args.arrivals, rate),
        histogram_sampler(e2e, seed=args.seed + 2),
        args.queries,
        policy=args.policy,
        n_replicas=1,
        seed=args.seed,
    )

    rows = [
        ["mean service (measured, ms)", f"{mean_service * 1000:.1f}"],
        ["target utilization", f"{load:.2f}"],
        ["analytic M/M/1 p99 (ms)", f"{analytic_p99 * 1000:.1f}"],
        [f"replay p99, exponential service ({args.queries} q, ms)",
         f"{exp_replay.p99_response * 1000:.1f}"],
        ["replay vs M/M/1 relative error", f"{exp_replay.mm1_error():.3f}"],
        ["replay p99, measured histogram (ms)",
         f"{measured_replay.p99_response * 1000:.1f}"],
        ["replay utilization", f"{exp_replay.utilization:.3f}"],
    ]
    print()
    print(format_table(
        f"Model replay ({args.arrivals} arrivals, seed={args.seed})",
        ["Metric", "Value"], rows,
    ))
    print(f"replay digest determinism:  {'ok' if digest_ok else 'FAILED'}")

    estimate = extrapolate_fleet(measured_replay, target_queries=1_000_000)
    print(
        f"extrapolated fleet: {estimate.n_replicas} replicas serve "
        f"{estimate.target_queries:,} queries/hour "
        f"({estimate.target_rate:.0f} q/s) at per-replica load {load:.2f}, "
        f"projected p99 {estimate.projected_p99 * 1000:.0f} ms"
    )
    return 0 if outcome_drift is None and span_drift is None and digest_ok else 2


def _read_spans(path: str):
    """The spans of a JSONL export; an export with none is an error."""
    from repro.errors import ObsError
    from repro.obs import read_jsonl

    spans = read_jsonl(path)
    if not spans:
        raise ObsError(
            f"span export {path!r} contains no spans; was the trace "
            "written with tracing enabled (serve-bench --trace)?"
        )
    return spans


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import format_critical_path_report, format_roofline, render_report

    spans = _read_spans(args.path)
    _export_spans(spans, chrome=args.chrome)
    sections = [render_report(spans, limit=args.limit, mm1_load=args.mm1)]
    if args.critical_path:
        sections.append(format_critical_path_report(
            spans, quantile=args.tail_quantile
        ))
    if args.roofline:
        sections.append(format_roofline(spans))
    print("\n\n".join(sections))
    return 0


def _run_report(args, from_spans, from_replay, render, to_json, label) -> int:
    """The ``fleet-report`` / ``cost-report`` driver.

    Two sources: a timing-stripped span export (positional path) goes to
    ``from_spans(spans)``; otherwise ``from_replay(replay)`` gets the
    seeded virtual-time replay the shared flags describe, as a callable
    taking extra :func:`~repro.serving.cluster.replay.replay_cluster`
    keywords.  ``--json`` prints ``to_json(report)`` instead of
    ``render(report)``; ``--smoke`` rebuilds the report from scratch and
    exits 2, naming the first difference, unless both renderings are
    byte-identical.
    """
    import functools

    from repro.serving.cluster import AutoscalerPolicy, seeded_replay
    from repro.serving.identity import first_divergence

    if args.smoke:
        args.queries = min(args.queries, 2_000)
    if args.path:
        build = functools.partial(from_spans, _read_spans(args.path))
    else:
        build = functools.partial(from_replay, functools.partial(
            seeded_replay,
            args.arrivals, args.rate, args.service_mean, args.queries,
            seed=args.seed,
            policy=args.policy,
            n_replicas=args.replicas,
            autoscaler=(
                AutoscalerPolicy(slo_p99=args.e2e_slo) if args.autoscale else None
            ),
        ))

    report = build()
    print(to_json(report) if args.json else render(report), end="")
    if args.smoke:
        again = build()
        drift = (
            first_divergence(to_json(report), to_json(again))
            or first_divergence(render(report), render(again))
        )
        print(f"{label} determinism: {_verdict(drift)}", file=sys.stderr)
        if drift is not None:
            return 2
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    """``repro fleet-report``: the fleet health dashboard.

    Rollups, SLO burn rates, the autoscaler trajectory, and the trace
    sampling bill in one deterministic page, over a seeded cluster replay
    (default; arrivals, routing, optional autoscaling) or a span export
    from ``serve-bench --trace`` projected onto the ordinal clock.
    """
    from repro.obs import fleet_report
    from repro.obs.slo import default_slos

    sampling = dict(
        head_rate=args.head_rate,
        top_k=args.top_k,
        sample_seed=args.seed,
        slos=default_slos(
            e2e_threshold=args.e2e_slo, ttfp_threshold=args.ttfp_slo
        ),
    )
    return _run_report(
        args,
        lambda spans: fleet_report.report_from_spans(
            spans, window=args.window, **sampling
        ),
        lambda replay: fleet_report.report_from_replay(
            replay(tick_seconds=args.window), trace_seed=args.seed, **sampling
        ),
        fleet_report.render_fleet_report,
        fleet_report.report_to_json,
        "fleet-report",
    )


def _cmd_cost_report(args: argparse.Namespace) -> int:
    """``repro cost-report``: the per-query joule/dollar ledger.

    Folds a span export (or a seeded cluster replay) into per-query,
    per-stage energy and dollars with the AI-tax decomposition, reprices
    the same trace on CMP/GPU/Phi/FPGA, and (``--fleet``) extrapolates to
    the million-query day.  Every number derives from seeds, virtual
    time, and the Table 5/6/7 constants — never wall clocks — so the
    ledger is byte-identical across execution backends.
    """
    from repro.obs import cost

    pricing = dict(
        platform=args.platform,
        fleet=args.fleet,
        target_queries=args.target_queries,
    )
    return _run_report(
        args,
        lambda spans: cost.cost_report_from_spans(spans, **pricing),
        lambda replay: cost.cost_report_from_replay(replay(), **pricing),
        cost.render_cost_report,
        cost.report_to_json,
        "cost-report",
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run the registry and/or gate against a baseline."""
    from repro.obs import bench

    action = args.action
    baseline_path = args.baseline or args.check
    if action == "run" and args.check:
        action = "check"
    if action == "check" and not baseline_path:
        print("error[CONFIG]: bench check needs a baseline "
              "(repro bench --check BASELINE.json)", file=sys.stderr)
        return 2
    if action == "run" and args.json and not (args.out or args.tag):
        print("error[CONFIG]: bench run --json needs --out PATH or --tag TAG",
              file=sys.stderr)
        return 2

    if action == "list":
        for benchmark in bench.all_benchmarks():
            gated = ", ".join(
                metric for metric, spec in sorted(benchmark.metric_specs.items())
                if spec.gated
            )
            print(f"{benchmark.name:<16} {benchmark.description}")
            print(f"{'':<16} gated: {gated}")
        return 0

    def progress(message: str) -> None:
        print(message, file=sys.stderr)

    def run_current():
        if args.current:
            return bench.load_report(args.current)
        return bench.run_benchmarks(
            filters=args.filter, quick=args.quick, repeats=args.repeats,
            tag=args.tag or "dev", progress=progress,
        )

    if action == "run":
        report = run_current()
        if args.json:
            out_path = args.out or f"BENCH_{args.tag}.json"
            with open(out_path, "w") as handle:
                handle.write(bench.to_json(report))
            print(f"wrote {len(report['benchmarks'])} benchmarks to {out_path}",
                  file=sys.stderr)
        print(bench.format_report(report))
        return 0

    # action == "check"
    baseline = bench.load_report(baseline_path)
    current = run_current()
    findings = bench.check_report(current, baseline)
    print(bench.format_findings(findings))
    return 1 if findings else 0


def _cmd_design(args: argparse.Namespace) -> int:  # noqa: ARG001
    from repro.analysis import format_matrix, format_table
    from repro.datacenter import DatacenterDesigner, paper_gap
    from repro.platforms import PLATFORMS, service_speedup_table

    designer = DatacenterDesigner()
    print(format_matrix(
        "Service speedups", "Service", service_speedup_table(),
        columns=list(PLATFORMS),
    ))
    table8 = designer.homogeneous_table()
    rows = [[objective, *[choices[name] for name in choices]]
            for objective, choices in table8.items()]
    print("\n" + format_table(
        "Homogeneous DC design",
        ["Objective", *next(iter(table8.values())).keys()], rows,
    ))
    gap = paper_gap()
    for platform in ("gpu", "fpga"):
        improvement = designer.average_query_latency_improvement(platform)
        print(f"{platform.upper():5s} avg query speedup {improvement:5.1f}x; "
              f"residual gap {gap.bridged_gap(improvement):5.1f}x")
    return 0


def _cmd_wer(args: argparse.Namespace) -> int:
    from repro.asr import (
        BigramLanguageModel,
        Decoder,
        collect_training_data,
        train_gmm_acoustic_model,
    )
    from repro.asr.evaluate import noise_robustness_sweep
    from repro.core import all_sentences

    sentences = all_sentences()
    data = collect_training_data(sentences, repetitions=4)
    decoder = Decoder(train_gmm_acoustic_model(data), BigramLanguageModel(sentences))
    sweep = noise_robustness_sweep(decoder, sentences, noise_levels=args.noise)
    for level, result in sweep.items():
        print(f"noise {level:5.2f}: WER {result.wer:6.3f}  "
              f"exact {result.exact_sentences}/{result.total_sentences}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.statcheck.cli import run_lint

    return run_lint(args)


#: Routing policies and arrival processes the cluster commands accept.
_POLICIES = ("round-robin", "least-loaded", "power-of-two")
_ARRIVALS = ("poisson", "diurnal", "bursty")


def _add_report_arguments(
    parser: argparse.ArgumentParser, verb: str, page: str
) -> None:
    """The source, replay and output flags ``fleet-report`` and
    ``cost-report`` share (see :func:`_run_report`)."""
    parser.add_argument(
        "path", nargs="?", default=None,
        help=f"JSONL span export to {verb} (default: run a seeded replay)",
    )
    parser.add_argument("--queries", type=int, default=5_000,
                        help="replay arrival count (default 5000)")
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--policy", default="least-loaded", choices=_POLICIES)
    parser.add_argument("--arrivals", default="poisson", choices=_ARRIVALS)
    parser.add_argument("--rate", type=float, default=12.0,
                        help="arrival rate in queries/second (default 12)")
    parser.add_argument("--service-mean", type=float, default=0.12,
                        help="mean service time in seconds (default 0.12)")
    parser.add_argument(
        "--autoscale", action="store_true",
        help="enable the SLO autoscaler in replay mode (target = --e2e-slo)",
    )
    parser.add_argument("--e2e-slo", type=float, default=2.5,
                        help="end-to-end p99 target in seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true",
        help=f"emit canonical JSON (sorted keys) instead of the {page}",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI shape: <= 2000 arrivals, rebuild twice, exit 2 unless "
             "both renderings are byte-identical",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sirius-repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="process one spoken query")
    query.add_argument("text")
    query.add_argument("--image-scene", type=int, default=None)
    query.add_argument("--asr-backend", choices=("gmm", "dnn"), default="gmm")
    query.add_argument("--seed", type=int, default=2020)
    query.set_defaults(func=_cmd_query)

    demo = sub.add_parser("demo", help="run the 42-query input set")
    demo.add_argument("--asr-backend", choices=("gmm", "dnn"), default="gmm")
    demo.add_argument("--limit", type=int, default=0)
    demo.set_defaults(func=_cmd_demo)

    suite = sub.add_parser("suite", help="run the 7 Sirius Suite kernels")
    suite.add_argument("--scale", type=float, default=0.25)
    suite.add_argument("--workers", type=int, default=4)
    suite.add_argument("--processes", action="store_true")
    suite.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export kernel spans (with work counters) as JSONL; feed to "
             "``repro trace-report --roofline``",
    )
    suite.set_defaults(func=_cmd_suite)

    serve = sub.add_parser(
        "serve-bench",
        help="serving-layer throughput: sequential vs whole-query fan-out",
    )
    serve.add_argument("--queries", type=int, default=16)
    serve.add_argument("--mix", choices=("vq", "all"), default="vq")
    serve.add_argument(
        "--backend", choices=("serial", "thread", "process"), default="process"
    )
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument("--asr-backend", choices=("gmm", "dnn"), default="gmm")
    serve.add_argument(
        "--chaos", type=int, default=None, metavar="SEED",
        help="run the seeded chaos bench instead: availability/goodput under "
             "the default fault plan, with a replay-determinism check",
    )
    serve.add_argument(
        "--streaming", action="store_true",
        help="drive the asyncio session gateway instead: chunked audio, "
             "partial hypotheses, endpointing, TTFP percentiles, and the "
             "single-chunk byte-equivalence check (exit 2 on mismatch)",
    )
    serve.add_argument(
        "--chunk-ms", type=float, default=100.0, metavar="MS",
        help="audio chunk duration for --streaming (default 100 ms)",
    )
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export spans as JSONL (chaos mode writes the deterministic, "
             "timing-stripped form so replays are byte-identical)",
    )
    serve.add_argument(
        "--chrome-trace", default=None, metavar="PATH",
        help="export spans as Chrome trace-event JSON (chrome://tracing)",
    )
    serve.add_argument(
        "--metrics", action="store_true",
        help="print per-service latency histograms (count/mean/p50/p95/p99)",
    )
    serve.set_defaults(func=_cmd_serve_bench)

    cluster = sub.add_parser(
        "cluster-bench",
        help="cluster serving: routed sharded replicas live, plus the "
             "virtual-time traffic replay vs the M/M/1 model",
    )
    cluster.add_argument("--queries", type=int, default=50_000,
                         help="replay arrival count (default 50000)")
    cluster.add_argument("--live", type=int, default=12,
                         help="real queries through the live fleet")
    cluster.add_argument("--replicas", type=int, default=3)
    cluster.add_argument("--shards", type=int, default=2)
    cluster.add_argument("--policy", default="power-of-two", choices=_POLICIES)
    cluster.add_argument("--arrivals", default="poisson", choices=_ARRIVALS)
    cluster.add_argument("--load", type=float, default=0.7,
                         help="target single-replica utilization (0, 1)")
    cluster.add_argument("--drop-rate", type=float, default=0.0,
                         help="seeded admission drop fraction for the live run")
    cluster.add_argument(
        "--backend", choices=("serial", "thread", "process"), default="serial"
    )
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument(
        "--smoke", action="store_true",
        help="CI shape: <= 6 live queries, <= 50k replay arrivals",
    )
    cluster.set_defaults(func=_cmd_cluster_bench)

    trace_report = sub.add_parser(
        "trace-report",
        help="render waterfalls and tail percentiles from a span export",
    )
    trace_report.add_argument("path", help="JSONL span export to read")
    trace_report.add_argument(
        "--limit", type=int, default=0,
        help="cap the number of query waterfalls rendered (0 = all)",
    )
    trace_report.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="also convert the export to Chrome trace-event JSON",
    )
    trace_report.add_argument(
        "--mm1", type=float, default=None, metavar="LOAD",
        help="append the measured-histogram vs analytic M/M/1 comparison "
             "at this utilization (0 < LOAD < 1)",
    )
    trace_report.add_argument(
        "--critical-path", action="store_true",
        help="append per-stage critical-path attribution (self/wait/virtual "
             "time, exactly decomposing trace totals) and tail attribution",
    )
    trace_report.add_argument(
        "--tail-quantile", type=float, default=0.99, metavar="Q",
        help="tail quantile for --critical-path attribution (default 0.99)",
    )
    trace_report.add_argument(
        "--roofline", action="store_true",
        help="append roofline placement of traced kernels (measured "
             "operational intensity from span work counters)",
    )
    trace_report.set_defaults(func=_cmd_trace_report)

    fleet = sub.add_parser(
        "fleet-report",
        help="fleet health dashboard: rollups, SLO burn rates, autoscaler "
             "trajectory, and the trace-sampling bill",
    )
    _add_report_arguments(fleet, "evaluate", "dashboard")
    fleet.add_argument("--window", type=float, default=5.0,
                       help="rollup window width in virtual seconds")
    fleet.add_argument("--head-rate", type=float, default=0.1,
                       help="head sampling probability (default 0.1)")
    fleet.add_argument("--top-k", type=int, default=8,
                       help="slowest-trace reservoir size (default 8)")
    fleet.add_argument("--ttfp-slo", type=float, default=0.5,
                       help="time-to-first-partial p95 threshold in seconds")
    fleet.set_defaults(func=_cmd_fleet_report)

    cost = sub.add_parser(
        "cost-report",
        help="per-query joule/dollar ledger with the AI-tax decomposition "
             "and platform what-if repricing",
    )
    _add_report_arguments(cost, "price", "ledger")
    cost.add_argument(
        "--platform", default="cmp", choices=("cmp", "gpu", "phi", "fpga"),
        help="platform the headline ledger is priced on (default cmp)",
    )
    cost.add_argument(
        "--fleet", action="store_true",
        help="extrapolate to --target-queries per day: servers, joules, "
             "and dollars per platform",
    )
    cost.add_argument("--target-queries", type=int, default=1_000_000,
                      help="fleet extrapolation volume (default 1e6/day)")
    cost.set_defaults(func=_cmd_cost_report)

    bench = sub.add_parser(
        "bench",
        help="run the pinned-seed benchmark registry / check the regression gate",
        description=(
            "repro bench [run|check|list]: run the registered benchmarks "
            "(schema-versioned BENCH_<tag>.json with counter totals and "
            "latency percentiles), or gate a run against a committed "
            "baseline.  Gated metrics are deterministic (counters, "
            "checksums, virtual latency) — wall clocks never decide the "
            "gate.  Compare like with like: a --quick baseline only gates "
            "--quick runs."
        ),
    )
    bench.add_argument(
        "action", nargs="?", choices=("run", "check", "list"), default="run",
        help="run benchmarks (default), check against a baseline, or list "
             "the registry",
    )
    bench.add_argument(
        "baseline", nargs="?", default=None,
        help="baseline JSON for the check action",
    )
    bench.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="shorthand: gate a fresh run (or --current) against BASELINE",
    )
    bench.add_argument(
        "--current", default=None, metavar="PATH",
        help="use an existing report JSON instead of re-running (check mode)",
    )
    bench.add_argument("--json", action="store_true",
                       help="also write the report JSON (see --out)")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="report path for --json (default BENCH_<tag>.json)")
    bench.add_argument("--tag", default=None,
                       help="report tag; names the default output file")
    bench.add_argument("--quick", action="store_true",
                       help="small inputs / fewer queries (CI smoke)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="repeats per benchmark (min-of-k gate rule)")
    bench.add_argument("--filter", action="append", default=[],
                       metavar="SUBSTR",
                       help="only benchmarks whose name contains SUBSTR "
                            "(repeatable)")
    bench.set_defaults(func=_cmd_bench)

    design = sub.add_parser("design", help="print the datacenter design study")
    design.set_defaults(func=_cmd_design)

    wer = sub.add_parser("wer", help="ASR noise-robustness sweep")
    wer.add_argument("--noise", type=float, nargs="+",
                     default=[0.0, 0.05, 0.1, 0.2])
    wer.set_defaults(func=_cmd_wer)

    lint = sub.add_parser(
        "lint", help="run the statcheck static analyzer over the codebase"
    )
    from repro.statcheck.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import SiriusError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SiriusError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. `repro lint | head`); exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
