"""Wall-clock benchmark of the Sirius pipeline: four workloads, one command.

    python3 benchmarks/perf/run.py [--seed 2015] [--workload NAME] [--quick]
    python3 benchmarks/perf/run.py --check-repeat
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs in a process of its own.  With
``--trace 0`` only the end-to-end metrics are measured, with ``--trace 1``
only the per-layer ones; without ``--trace``, both.  The last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); everything a reader wants beyond that is in
``benchmarks/perf/out/<workload>.json`` and ``out/trace-<workload>.json``.

See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import os

# One thread per query, as in the paper's baseline, and so that wall time is
# CPU time and noise stays visible.  Must happen before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

WARMUP_OPS = 8
#: Every input is measured at least this often, however short ``--seconds``
#: is: a best-of needs a second sample to be confirmed by.
MIN_ROUNDS = 2
#: Noise guard: outside either band a workload's timings are ``unresolved``.
CPU_OVER_WALL_BAND = (0.9, 1.1)
ROUND_SPREAD_MAX = 1.1
#: Dither stream ids of the passes that are not measured rounds (those
#: count from 0); the traced pass takes three per round from its base up.
WARMUP_PASS, TRACE_PASSES = 10**6, 2 * 10**6
SUITE_SCALE, QUICK_SUITE_SCALE = 0.5, 0.1
#: Inputs the traced pass replays (all of them where a workload has fewer).
TRACE_OPS, QUICK_TRACE_OPS = 32, 3
#: End-to-end metrics that are timings, i.e. what the noise guard withholds.
TIMINGS = ("latency_p50_ms", "latency_p90_ms", "throughput_qps", "ttfp_p50_ms",
           "finalize_p50_ms")

Metric = Tuple[float, str]


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """This process's peak resident set.

    ``VmHWM`` where there is a ``/proc``, not ``ru_maxrss``: that one survives
    ``exec``, so a run starts from its launcher's peak (the same run read
    119 MB started from an interactive shell's pipeline and 102 MB started
    from a script).
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_of(rows: Sequence[Sequence[str]]) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update("\x1f".join(row).encode())
        digest.update(b"\x1e")
    return digest.hexdigest()


# -- one workload, in this process -------------------------------------------------


class Run:
    """Everything one workload process measures."""

    def __init__(self, name: str, seed: int, seconds: float, quick: bool):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import quiet

        self.quiet = quiet.QuietCpu(enabled=not quick)  # --quick runs all four at once
        self.quiet.settle()
        import_start = time.perf_counter()
        import numpy
        import layers
        import workloads

        self.import_s = time.perf_counter() - import_start
        self.np, self.layers, self.workloads = numpy, layers, workloads
        self.name, self.seed, self.seconds, self.quick = name, seed, seconds, quick
        self.workload = workloads.WORKLOADS[name]()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def make_inputs(self) -> None:
        start = time.perf_counter()
        self.items = self.workload.make_inputs(self.seed)
        if self.quick:
            self.items = self.items[: self.workloads.QUICK_N]
        self.inputs_s = time.perf_counter() - start
        self.inputs_sha256 = self.workload.input_digest(self.items)

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> float:
        """Import + build + warm-up of what the workload needs, from cold."""
        start = time.perf_counter()
        self.workload.setup()
        return self.import_s + time.perf_counter() - start

    # -- operations --------------------------------------------------------------

    def operate(self, index: int, stream: int) -> Any:
        """Run the operation on input ``index`` as pass ``stream`` sees it:
        same content, own dither.  Every pass but the warm-up counts towards
        ``attempted``/``failed``."""
        self.quiet.settle_if_due()
        item = self.workload.prepare(
            self.items[index], self.np.random.default_rng([self.seed, stream, index])
        )
        outcome = self.workload.run(item)
        if stream != WARMUP_PASS:
            self.attempted += 1
            self.failed += outcome.failed
        return outcome

    # -- end to end (tracing off) ------------------------------------------------

    def end_to_end(self) -> Tuple[Dict[str, Metric], Dict[str, Any]]:
        """Every end-to-end metric but ``setup_s``, which the caller adds."""
        n = len(self.items)
        for index in range(1 if self.quick else min(WARMUP_OPS, n)):
            self.operate(index, WARMUP_PASS)

        # Whole rounds over the input list, in input order; after MIN_ROUNDS
        # the round in progress stops where the time is up.
        min_rounds = 1 if self.quick else MIN_ROUNDS
        samples: List[List[Any]] = [[] for _ in range(n)]
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        deadline = wall_start + (0.0 if self.quick else self.seconds)
        rounds = 0
        while rounds < min_rounds or time.perf_counter() < deadline:
            for index in range(n):
                if rounds >= min_rounds and time.perf_counter() >= deadline:
                    break
                samples[index].append(self.operate(index, stream=rounds))
            rounds += 1
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        peak = peak_rss_mb()

        def best(field: str) -> List[float]:
            return [min(getattr(o, field) for o in taken) for taken in samples]

        latency = best("latency")
        metrics: Dict[str, Metric] = {
            "latency_p50_ms": (1e3 * statistics.median(latency), "ms"),
            "latency_p90_ms": (1e3 * float(self.np.percentile(latency, 90)), "ms"),
            "throughput_qps": (n / sum(latency), "ops/s"),
            "peak_rss_mb": (peak, "MB"),
            "ttfp_p50_ms": (1e3 * statistics.median(best("ttfp")), "ms"),
            "finalize_p50_ms": (1e3 * statistics.median(best("finalize")), "ms"),
        }
        first = [taken[0].output for taken in samples]
        details = {
            "n": n,
            "samples_per_input": [min(map(len, samples)), max(map(len, samples))],
            "measured_seconds": wall,
            "cpu_moves": self.quiet.moves,
            "outputs_sha256": sha256_of(first),
            "outputs_stable": all(
                o.output == first[index] for index, taken in enumerate(samples) for o in taken
            ),
            "guard": noise_guard(cpu / wall, round_spread(
                [[o.latency for o in taken] for taken in samples])),
        }
        return metrics, details

    # -- per layer (traced subset) -------------------------------------------------

    def per_layer(self) -> Tuple[Dict[str, Metric], Dict[str, Any]]:
        layers = self.layers
        # A fixed number of inputs, not a time limit: the work counts of two
        # runs on one seed must be equal, however fast the machine was.
        size = min(QUICK_TRACE_OPS if self.quick else TRACE_OPS, len(self.items))
        chooser = random.Random(self.workloads.sub_seed(self.seed, 4))
        subset = chooser.sample(range(len(self.items)), size)
        self.operate(subset[0], WARMUP_PASS)
        program_traces = self.workload.set_program_tracing(None)

        log = layers.SpanLog()
        untraced: List[Any] = []
        program_traced: List[Any] = []
        roots: List[float] = []
        #: Per input, every time the operation itself ran in this pass.
        passes: Dict[int, List[float]] = {index: [] for index in subset}
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        deadline = wall_start + (0.0 if self.quick else self.seconds)
        rounds = 0
        # Rounds over the subset until the time is up; per input the log
        # keeps the fastest attempt.  Each input runs untraced, traced and
        # program-traced back to back, so a slow stretch of the machine hits
        # all three alike and ratios hold.
        while rounds == 0 or time.perf_counter() < deadline:
            for index in subset:
                if rounds and time.perf_counter() >= deadline:
                    break
                stream = TRACE_PASSES + 3 * rounds
                untraced.append(self.operate(index, stream))
                log.begin(index)
                item = self.workload.prepare(
                    self.items[index], self.np.random.default_rng([self.seed, stream + 1, index])
                )
                operation, replayed = self.workload.replay(item, log)
                roots.append(log.commit())
                passes[index] += [untraced[-1].latency, roots[-1]]
                if operation != replayed:
                    self.problems.append(
                        f"replay of input {index} gave {replayed!r}, operation gave {operation!r}"
                    )
                if program_traces:
                    self.workload.set_program_tracing(0)
                    try:
                        program_traced.append(self.operate(index, stream + 2))
                        passes[index].append(program_traced[-1].latency)
                    finally:
                        self.workload.set_program_tracing(None)
            rounds += 1
        cpu = time.process_time() - cpu_start
        wall = time.perf_counter() - wall_start

        metrics = layers.layer_metrics(log)
        untraced_seconds = sum(o.latency for o in untraced)
        overhead, spans_per_op = 0.0, 0.0
        if program_traces:
            overhead = sum(o.latency for o in program_traced) / untraced_seconds
            # A count must repeat exactly: whole first round only.
            spans_per_op = statistics.mean(o.n_spans for o in program_traced[: len(subset)])
        metrics["obs.trace.overhead_ratio"] = (overhead, "ratio")
        metrics["obs.trace.spans_per_op"] = (float(spans_per_op), "count")

        suite, checksums_ok = layers.suite_metrics(
            QUICK_SUITE_SCALE if self.quick else SUITE_SCALE
        )
        if not checksums_ok:
            self.problems.append("a suite kernel's checksum differs from run()")
        metrics.update(suite)

        metrics.update({
            "harness.trace_overhead_ratio": (sum(roots) / untraced_seconds, "ratio"),
            "harness.cpu_over_wall": (cpu / wall, "ratio"),
            "harness.round_spread": (round_spread(list(passes.values())), "ratio"),
            "harness.inputs_s": (self.inputs_s, "s"),
            "harness.import_s": (self.import_s, "s"),
            "harness.failed_share": (self.failed / self.attempted, "ratio"),
        })

        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{self.name}.json", "w") as handle:
            json.dump({"workload": self.name, "seed": self.seed, "spans": log.export()}, handle)
        exact = {
            name: value for name, (value, unit) in metrics.items()
            if unit == "count" or name in ("qa.filter_yield", "imm.vote_share")
        }
        return metrics, {"traced_ops": len(subset), "trace_rounds": rounds, "work_counts": exact}


def round_spread(samples: Sequence[Sequence[float]]) -> float:
    """Median second-best latency over median best, across inputs.

    A best-of-rounds figure stands when another round confirms it: 1.0 says
    dropping every input's best sample would not move the median, a large
    value that the quiet machine was seen once at most.  An input measured
    once is its own second-best.
    """
    ranked = [sorted(taken) for taken in samples]
    best = statistics.median(taken[0] for taken in ranked)
    return statistics.median(taken[min(1, len(taken) - 1)] for taken in ranked) / best


def noise_guard(cpu_over_wall: float, spread: float) -> Dict[str, Any]:
    low, high = CPU_OVER_WALL_BAND
    resolved = low <= cpu_over_wall <= high and spread <= ROUND_SPREAD_MAX
    return {
        "cpu_over_wall": cpu_over_wall,
        "round_spread": spread,
        "verdict": "ok" if resolved else "unresolved",
    }


def run_workload(name: str, seed: int, seconds: float, trace: Optional[int], quick: bool) -> int:
    """Measure one workload in this process; returns the exit code."""
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; the benchmark measures "
              "the program in src/ and has nothing to run without it", file=sys.stderr)
        return 2
    run = Run(name, seed, seconds, quick)
    setups = [run.setup()]
    want_e2e, want_layers = trace in (None, 0), trace in (None, 1)
    run.make_inputs()
    report: Dict[str, Any] = {
        "workload": name, "seed": seed, "quick": quick,
        "inputs_sha256": run.inputs_sha256,
        "inputs_s": run.inputs_s, "import_s": run.import_s,
    }
    metrics: Dict[str, Metric] = {}
    try:
        if want_e2e:
            e2e, details = run.end_to_end()
            if not quick:
                # ``setup_s`` is the faster of two cold set-ups.  The second
                # is in a fresh process, because a rebuild in this one would
                # find the CRF tagger already trained; and it comes after the
                # measured rounds, because the machine's slow stretches
                # outlast a build and two back to back would share one.
                run.quiet.settle()  # the child inherits the CPU this picks
                setups.append(setup_in_fresh_process(name))
            e2e["setup_s"] = (min(setups), "s")
            expect_names(e2e, spec["end_to_end"])
            report.update(details, end_to_end=to_json(e2e))
            metrics = e2e
        if want_layers:
            per_layer, details = run.per_layer()
            expect_names(per_layer, spec["per_layer"])
            report.update(details, per_layer=to_json(per_layer))
            if trace == 1:
                metrics = per_layer
    finally:
        run.workload.close()
    correct = not run.problems and run.failed == 0
    report.update(correct=correct, problems=run.problems,
                  attempted=run.attempted, failed=run.failed)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.json", "w") as handle:
        json.dump(report, handle, indent=1)
    print_report(report, spec)
    for problem in run.problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": to_json(metrics),
    }))
    return 0 if not run.problems else 1


def setup_only(name: str) -> int:
    """Set the workload up from cold, print the seconds, tear it down."""
    run = Run(name, seed=0, seconds=0.0, quick=False)
    seconds = run.setup()
    run.workload.close()
    print(json.dumps({"setup_s": seconds}))
    return 0


def setup_in_fresh_process(name: str) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-only"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def to_json(metrics: Dict[str, Metric]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def expect_names(metrics: Dict[str, Metric], declared: Sequence[Dict[str, Any]]) -> None:
    """The harness and BENCHMARK.json must name the same metrics and units."""
    want = {entry["name"]: entry["unit"] for entry in declared}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if want != have:
        odd = sorted(set(want.items()) ^ set(have.items()))
        raise SystemExit(f"error: BENCHMARK.json and the harness disagree on {odd}")


# -- printing ------------------------------------------------------------------------


def print_report(report: Dict[str, Any], spec: Dict[str, Any]) -> None:
    head = f"== {report['workload']}  seed={report['seed']}"
    if "n" in report:
        fewest, most = report["samples_per_input"]
        head += f"  n={report['n']}  R={fewest}" + (f"-{most}" if most > fewest else "")
    print(head + "  (closed loop, 1 client, tracing off for end-to-end) ==")
    if report["quick"]:
        print("   --quick: sizes cut to a smoke test; numbers are NOT comparable")
    if "end_to_end" in report:
        guard = report["guard"]
        for entry in spec["end_to_end"]:
            name = entry["name"]
            measured = report["end_to_end"][name]
            shown = f"{measured['value']:12.4f}"
            if guard["verdict"] != "ok" and name in TIMINGS:
                shown = f"{'unresolved':>12}"
            sign = "+" if entry["better"] == "lower" else "-"
            print(f"   {name:<34}{shown} {measured['unit']:<6} bound {sign}{entry['bound']:.0%}")
        print(f"   noise guard: cpu_over_wall={guard['cpu_over_wall']:.3f} "
              f"round_spread={guard['round_spread']:.3f} -> {guard['verdict']}")
        print(f"   inputs_sha256  {report['inputs_sha256']}")
        print(f"   outputs_sha256 {report['outputs_sha256']}"
              + ("" if report["outputs_stable"] else "  (outputs differ between rounds)"))
    if "per_layer" in report:
        print(f"   per layer, from {report['traced_ops']} traced operations "
              f"(fastest of up to {report['trace_rounds']} attempts each):")
        for name, measured in report["per_layer"].items():
            print(f"   {name:<34}{measured['value']:12.4f} {measured['unit']}")
    print(f"   failed / attempted: {report['failed']} / {report['attempted']}"
          f"   correct: {report['correct']}")


# -- every workload, each in a process of its own ----------------------------------------


def run_all(args: argparse.Namespace, names: Sequence[str]) -> Tuple[int, Dict[str, Any]]:
    """Run ``names`` one after another; returns (worst exit code, reports).

    ``--quick`` starts them all at once instead: its numbers are not
    comparable anyway, and the smoke test is done in half the time.
    """
    def start(name: str) -> subprocess.Popen:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    worst, reports = 0, {}
    started = {name: start(name) for name in names} if args.quick else {}
    for name in names:
        child = started.get(name) or start(name)
        for line in child.stdout:
            print(line, end="", flush=True)
        worst = max(worst, child.wait())
        if child.returncode == 0:
            with open(OUT / f"{name}.json") as handle:
                reports[name] = json.load(handle)
    return worst, reports


def check_repeat(first: Dict[str, Any], second: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """Differences between two runs of the same code that exceed the bounds."""
    differences = []
    for name, one in first.items():
        two = second[name]
        for key in ("failed", "inputs_sha256", "outputs_sha256", "work_counts"):
            if one.get(key) != two.get(key):
                differences.append(f"{name}: {key} does not repeat")
        for entry in spec["end_to_end"]:
            a = one["end_to_end"][entry["name"]]["value"]
            b = two["end_to_end"][entry["name"]]["value"]
            if abs(b - a) / a > entry["bound"]:
                differences.append(
                    f"{name}: {entry['name']} {a:.4f} vs {b:.4f} differs by more "
                    f"than its bound of {entry['bound']:.0%}"
                )
    return differences


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workload_names = [entry["name"] for entry in spec["workloads"]]
    parser.add_argument("--workload", choices=workload_names)
    parser.add_argument("--seed", type=int, default=2015,
                        help="drives speaker jitter, image perturbation, question "
                             "order and dither (2016 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the measured rounds last (at least two "
                             "rounds; the one in progress stops when time is up)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: n=16, one round; numbers not comparable")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice and fail if the runs disagree")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.check_repeat and args.trace is not None:
        parser.error("--check-repeat compares whole runs; it takes no --trace")
    if args.setup_only:
        return setup_only(args.workload)
    if args.workload and not args.check_repeat:
        return run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)

    names = [args.workload] if args.workload else workload_names
    code, reports = run_all(args, names)
    if code == 0 and args.check_repeat:
        code, again = run_all(args, names)
        differences = check_repeat(reports, again, spec) if code == 0 else []
        for difference in differences:
            print(f"repeat: {difference}")
        print("repeat check:", "FAILED" if differences or code else "ok")
        noisy = [name for name in names
                 if any(name in run and run[name]["guard"]["verdict"] != "ok"
                        for run in (reports, again))]
        if differences and noisy:
            print(f"   the noise guard tripped on {', '.join(noisy)}: the machine "
                  "was not quiet, which says nothing about the code; run again")
        code = code or (1 if differences else 0)
    if code == 0:
        OUT.mkdir(exist_ok=True)
        with open(OUT / "report.json", "w") as handle:
            json.dump({"seed": args.seed, "workloads": reports}, handle, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
