"""Command-line interface for the Sirius reproduction.

Subcommands::

    repro query "what is the capital of italy" [--image-scene 1]
    repro demo [--asr-backend dnn] [--limit 10]
    repro suite [--scale 0.25] [--workers 4]
    repro serve-bench [--queries 16] [--workers 2]
    repro serve-bench --trace spans.jsonl --chrome-trace trace.json --metrics
    repro serve-bench --chaos 42 [--queries 16] [--trace spans.jsonl]
    repro serve-bench --streaming [--queries 16] [--chunk-ms 100] [--trace spans.jsonl]
    repro serve-bench --replicas 3 [--queries 16] [--workers 2] [--trace spans.jsonl]
    repro trace-report spans.jsonl [--limit 3] [--chrome trace.json] [--mm1 0.7]
    repro trace-report spans.jsonl --critical-path [--tail-quantile 0.99] --roofline
    repro fleet-report [spans.jsonl] [--queries 5000] [--autoscale] [--json]
    repro bench [--quick] [--out report.json] [--tag prN]
    repro bench --check BASELINE.json [--out report.json]
    repro design
    repro wer [--noise 0.0 0.05 0.1]
    repro lint [paths ...] [--fail-on warning] [--select CODES] [--ignore CODES]

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
    from repro.errors import ConfigurationError

    if args.limit < 0:
        raise ConfigurationError(f"--limit must be >= 0 (0 = all), got {args.limit}")
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
    import math

    from repro.analysis import format_table
    from repro.errors import ConfigurationError
    from repro.obs.context import use_tracer
    from repro.obs.trace import Tracer
    from repro.suite import all_kernels

    if not (math.isfinite(args.scale) and args.scale > 0):
        raise ConfigurationError(
            f"--scale must be a positive finite number, got {args.scale}"
        )
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
                port = kernel.execute(inputs=inputs, workers=args.workers)
            rows.append(
                [kernel.service, kernel.name, base.items, kernel.port,
                 f"{base.seconds * 1000:.1f}", f"{port.seconds * 1000:.1f}"]
            )
    if tracer is not None:
        from repro.obs.export import write_jsonl

        write_jsonl(tracer.spans, args.trace)
        print(f"wrote {len(tracer.spans)} spans to {args.trace}")
    print(format_table(
        f"Sirius Suite (scale={args.scale})",
        ["Service", "Kernel", "Items", "Port", "Baseline (ms)",
         f"{args.workers}-worker port (ms)"],
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
            executor, queries, chunk_seconds=args.chunk_ms / 1000.0
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
    """``repro serve-bench``: a sequential run, then a fan-out run on
    ``--workers`` forked processes (default: one per CPU).

    The executor is the pipeline's own, or with ``--replicas N`` a routed
    fleet of N replicas over 2 shards (power-of-two, seed 0).  Both runs
    are traced or neither, so the speedup compares like with like, and
    the verdict is :func:`~repro.serving.identity.replay_divergence` of
    the two (outcomes, plus span forests when traced).  Only the fan-out
    run is exported and measured.
    """
    import time

    from repro.analysis import format_table
    from repro.core import InputSet, QueryType, SiriusPipeline
    from repro.errors import ConfigurationError

    if args.queries < 1:
        raise ConfigurationError(f"--queries must be >= 1, got {args.queries}")
    if args.replicas is not None and args.replicas < 1:
        raise ConfigurationError(f"--replicas must be >= 1, got {args.replicas}")
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
    from repro.serving import default_workers
    from repro.serving.cluster import build_cluster
    from repro.serving.identity import replay_divergence

    trace_seed = 0 if args.trace or args.chrome_trace else None
    if args.replicas is None:
        executor = pipeline.serving
        executor.trace_seed = trace_seed
    else:
        executor = build_cluster(
            pipeline, n_replicas=args.replicas, trace_seed=trace_seed
        )
    executor.warmup()

    def timed(**kwargs):
        start = time.perf_counter()
        responses = executor.run_all(queries, **kwargs)
        return time.perf_counter() - start, responses

    sequential_s, sequential = timed()
    store = RollupStore() if args.metrics else None
    executor.metrics = store
    workers = args.workers if args.workers is not None else default_workers()
    fanout_s, fanout = timed(workers=workers)
    outcome_drift, span_drift = replay_divergence(sequential, fanout)
    rows = [
        ["sequential", 1, f"{sequential_s:.2f}",
         f"{len(queries) / sequential_s:.2f}"],
        ["fan-out", workers, f"{fanout_s:.2f}",
         f"{len(queries) / fanout_s:.2f}"],
    ]
    fleet = f", {args.replicas} replicas" if args.replicas else ""
    print(format_table(
        f"Serving throughput ({len(queries)} {args.mix.upper()} queries{fleet})",
        ["Mode", "Workers", "Seconds", "Queries/s"], rows,
    ))
    print(f"fan-out speedup over sequential: {sequential_s / fanout_s:.2f}x")
    _export_spans(collect_spans(fanout), args.trace, args.chrome_trace)
    if store is not None:
        print(format_service_summary(
            store, title="Serving latency (fan-out run)"
        ))
    print(f"fan-out determinism: {_verdict(outcome_drift or span_drift)}")
    return 0 if outcome_drift is None and span_drift is None else 2


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


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    """``repro fleet-report``: the fleet health dashboard.

    Rollups, SLO burn rates, the autoscaler trajectory, the cost panel
    and the trace sampling bill in one deterministic page, over a seeded
    cluster replay (default; arrivals, routing, optional autoscaling) or
    a span export from ``serve-bench --trace`` projected onto the ordinal
    clock.  ``--json`` prints the canonical JSON instead of the text.
    """
    from repro.obs import fleet_report
    from repro.serving.cluster import AutoscalerPolicy, seeded_replay

    slos = fleet_report.default_slos(
        e2e_threshold=args.e2e_slo, ttfp_threshold=args.ttfp_slo
    )
    if args.path:
        report = fleet_report.report_from_spans(
            _read_spans(args.path), window=args.window, head_rate=args.head_rate,
            top_k=args.top_k, sample_seed=args.seed, slos=slos,
        )
    else:
        replay = seeded_replay(
            args.arrivals, args.rate, args.service_mean, args.queries,
            seed=args.seed,
            policy=args.policy,
            n_replicas=args.replicas,
            autoscaler=(
                AutoscalerPolicy(slo_p99=args.e2e_slo) if args.autoscale else None
            ),
            tick_seconds=args.window,
        )
        report = fleet_report.report_from_replay(
            replay, head_rate=args.head_rate, top_k=args.top_k,
            sample_seed=args.seed, trace_seed=args.seed, slos=slos,
        )
    render = (fleet_report.report_to_json if args.json
              else fleet_report.render_fleet_report)
    print(render(report), end="")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run the benchmarks, or gate a run against a baseline."""
    from repro.obs import bench

    baseline = bench.load_report(args.check) if args.check else None
    report = bench.run_benchmarks(
        # A check runs at the baseline's size: counters scale with it.
        quick=bool(baseline.get("quick")) if baseline else args.quick,
        tag=args.tag or "dev",
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(bench.to_json(report))
        print(f"wrote {len(report['benchmarks'])} benchmarks to {args.out}",
              file=sys.stderr)
    elif baseline is None:
        print(bench.to_json(report), end="")
    if baseline is None:
        return 0
    findings = bench.check_report(report, baseline)
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


#: Routing policies and arrival processes ``fleet-report`` accepts.
_POLICIES = ("round-robin", "least-loaded", "power-of-two")
_ARRIVALS = ("poisson", "diurnal", "bursty")


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
    suite.add_argument(
        "--workers", type=int, default=4,
        help="workers of each kernel's port (threads or forked processes, "
             "per kernel)",
    )
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
        "--workers", type=int, default=None,
        help="forked processes of the fan-out run (default: one per CPU; "
             "1 runs it in line; --streaming runs every session on its "
             "event loop's one thread)",
    )
    serve.add_argument("--asr-backend", choices=("gmm", "dnn"), default="gmm")
    mode = serve.add_mutually_exclusive_group()
    mode.add_argument(
        "--chaos", type=int, default=None, metavar="SEED",
        help="run the seeded chaos bench instead: availability/goodput under "
             "the default fault plan, with a replay-determinism check",
    )
    mode.add_argument(
        "--streaming", action="store_true",
        help="drive the asyncio session gateway instead: chunked audio, "
             "partial hypotheses, endpointing, TTFP percentiles, and the "
             "single-chunk byte-equivalence check (exit 2 on mismatch)",
    )
    mode.add_argument(
        "--replicas", type=int, default=None, metavar="N",
        help="serve through a routed fleet of N replicas over 2 shards "
             "(power-of-two routing, seed 0) instead of one executor",
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

    trace_report = sub.add_parser(
        "trace-report",
        help="render waterfalls, tail percentiles and the cost ledger from "
             "a span export",
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
             "trajectory, cost panel, and the trace-sampling bill",
    )
    fleet.add_argument(
        "path", nargs="?", default=None,
        help="JSONL span export to evaluate (default: run a seeded replay)",
    )
    fleet.add_argument("--queries", type=int, default=5_000,
                       help="replay arrival count (default 5000)")
    fleet.add_argument("--replicas", type=int, default=2)
    fleet.add_argument("--policy", default="least-loaded", choices=_POLICIES)
    fleet.add_argument("--arrivals", default="poisson", choices=_ARRIVALS)
    fleet.add_argument("--rate", type=float, default=12.0,
                       help="arrival rate in queries/second (default 12)")
    fleet.add_argument("--service-mean", type=float, default=0.12,
                       help="mean service time in seconds (default 0.12)")
    fleet.add_argument(
        "--autoscale", action="store_true",
        help="enable the SLO autoscaler in replay mode (target = --e2e-slo)",
    )
    fleet.add_argument("--e2e-slo", type=float, default=2.5,
                       help="end-to-end p99 target in seconds")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--json", action="store_true",
        help="emit canonical JSON (sorted keys) instead of the dashboard",
    )
    fleet.add_argument("--window", type=float, default=5.0,
                       help="rollup window width: virtual seconds on a replay, "
                            "queries (the ordinal clock) on a span export")
    fleet.add_argument("--head-rate", type=float, default=0.1,
                       help="head sampling probability (default 0.1)")
    fleet.add_argument("--top-k", type=int, default=8,
                       help="slowest-trace reservoir size (default 8)")
    fleet.add_argument("--ttfp-slo", type=float, default=0.5,
                       help="time-to-first-partial p95 threshold in seconds")
    fleet.set_defaults(func=_cmd_fleet_report)

    bench = sub.add_parser(
        "bench",
        help="run the pinned-seed benchmarks / check the determinism gate",
        description=(
            "repro bench: run the pinned-seed benchmarks and write the "
            "repro.bench/v2 JSON report (to --out, else stdout), or gate a "
            "run against a committed baseline with --check.  Every metric "
            "is deterministic and every repeat must equal the baseline; no "
            "wall clock is read.  A check runs at the baseline's size (its "
            "quick flag)."
        ),
    )
    bench.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="gate a fresh run against BASELINE; exit 1 on any finding",
    )
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="write the report JSON to PATH")
    bench.add_argument("--tag", default=None,
                       help="report tag (default dev)")
    bench.add_argument("--quick", action="store_true",
                       help="small inputs / fewer queries (ignored by --check, "
                            "which runs at the baseline's size)")
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
