"""Tests for the statcheck static-analysis subsystem.

Layout mirrors the acceptance criteria:

- one dedicated unit test per rule, each with a positive (flagged) and a
  negative (clean) snippet;
- framework tests (suppression pragmas, parse errors, file discovery);
- CLI integration (exit 0 clean / 1 findings / 2 analyzer failure);
- the full-repo sweep: the whole catalogue over ``src/repro`` finds
  nothing but the three findings suppressed inline (marked
  ``statcheck_sweep``).
"""

import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import SiriusError, StatcheckError
from repro.statcheck import (
    PARSE_ERROR_CODE,
    RULE_CODES,
    Severity,
    all_rules,
    analyze_paths,
    analyze_source,
    select_rules,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "statcheck" / "violations.py"


def report_codes(out: str):
    """Rule codes of a text report's finding lines (the summary excluded)."""
    return [line.split()[1] for line in out.splitlines()[:-1]]


def codes_in(snippet: str, path: str = "src/repro/suite/snippet.py"):
    report = analyze_source(textwrap.dedent(snippet), path=path)
    return [finding.code for finding in report.findings]


# ---------------------------------------------------------------------------
# Rule unit tests: one per rule, positive + negative snippet
# ---------------------------------------------------------------------------


class TestRuleUnits:
    def test_sc101_unguarded_prob_log(self):
        assert "SC101" in codes_in("import numpy as np\nx = np.log(probs)\n")
        assert "SC101" in codes_in("import math\nx = math.log(likelihoods)\n")
        # guarded / non-probability arguments are clean
        assert "SC101" not in codes_in(
            "import numpy as np\nx = np.log(np.maximum(probs, 1e-300))\n"
        )
        assert "SC101" not in codes_in(
            "import numpy as np\nx = np.log(probs + eps)\n"
        )
        assert "SC101" not in codes_in("import numpy as np\nx = np.log(count)\n")
        # already-log-space names are not re-flagged
        assert "SC101" not in codes_in(
            "import numpy as np\nx = np.log(log_probs)\n"
        )

    def test_sc102_naive_logsumexp(self):
        assert "SC102" in codes_in(
            "import numpy as np\nz = np.log(np.sum(np.exp(scores)))\n"
        )
        assert "SC102" in codes_in(
            "import numpy as np\nd = np.exp(a) - np.exp(b)\n"
        )
        # the max-shifted form is the recommended pattern
        assert "SC102" not in codes_in(
            "import numpy as np\n"
            "z = peak + np.log(np.sum(np.exp(scores - peak)))\n"
        )

    def test_sc103_default_dtype_accumulator(self):
        flagged = """
            import numpy as np
            def score(frames):
                acc = np.zeros(10)
                for frame in frames:
                    acc += frame
                return acc
        """
        clean = """
            import numpy as np
            def score(frames):
                acc = np.zeros(10, dtype=np.float64)
                for frame in frames:
                    acc += frame
                return acc
        """
        no_accumulation = """
            import numpy as np
            def shape_only():
                acc = np.zeros(10)
                return acc
        """
        assert "SC103" in codes_in(flagged)
        assert "SC103" not in codes_in(clean)
        assert "SC103" not in codes_in(no_accumulation)

    def test_sc201_array_grow_in_loop(self):
        flagged = """
            import numpy as np
            def build(chunks):
                out = np.zeros(0, dtype=float)
                for chunk in chunks:
                    out = np.concatenate([out, chunk])
                return out
        """
        clean = """
            import numpy as np
            def build(chunks):
                pieces = []
                for chunk in chunks:
                    pieces.append(chunk)
                return np.concatenate(pieces)
        """
        assert "SC201" in codes_in(flagged)
        assert "SC201" not in codes_in(clean)

    def test_sc202_list_to_array_in_loop(self):
        flagged = """
            import numpy as np
            def build(rows):
                collected = []
                for row in rows:
                    collected.append(row)
                    snapshot = np.array(collected)
                return snapshot
        """
        clean = """
            import numpy as np
            def build(rows):
                collected = []
                for row in rows:
                    collected.append(row)
                return np.array(collected)
        """
        assert "SC202" in codes_in(flagged)
        assert "SC202" not in codes_in(clean)

    def test_sc203_python_loop_in_kernel(self):
        flagged = """
            class FooKernel(Kernel):
                def run(self, inputs):
                    total = 0.0
                    for i in range(len(inputs)):
                        total += inputs[i] * 2.0
                    return total
        """
        # same loop outside a Kernel.run method is not the measured hot path
        clean_not_kernel = """
            class Helper:
                def run(self, inputs):
                    total = 0.0
                    for i in range(len(inputs)):
                        total += inputs[i] * 2.0
                    return total
        """
        clean_vectorized = """
            class FooKernel(Kernel):
                def run(self, inputs):
                    return float((inputs * 2.0).sum())
        """
        assert "SC203" in codes_in(flagged)
        assert "SC203" not in codes_in(clean_not_kernel)
        assert "SC203" not in codes_in(clean_vectorized)

    def test_sc204_wall_clock_duration(self):
        flagged = """
            import time
            def measure(action):
                start = time.time()
                action()
                return time.time() - start
        """
        clean_perf_counter = """
            import time
            def measure(action):
                start = time.perf_counter()
                action()
                return time.perf_counter() - start
        """
        clean_other_time = """
            import time
            def pause():
                time.sleep(0.01)
                return time.monotonic()
        """
        assert "SC204" in codes_in(flagged)
        assert "SC204" not in codes_in(clean_perf_counter)
        assert "SC204" not in codes_in(clean_other_time)

    def test_sc301_parallel_shared_mutation(self):
        flagged = """
            from repro.suite.parallel import map_chunks
            def total(items):
                acc = []
                def work(chunk):
                    acc.append(sum(chunk))
                map_chunks(work, items, 4)
                return acc
        """
        flagged_nonlocal = """
            from repro.suite.parallel import map_chunks
            def total(items):
                count = 0
                def work(chunk):
                    nonlocal count
                    count += len(chunk)
                map_chunks(work, items, 4)
                return count
        """
        clean = """
            from repro.suite.parallel import map_chunks
            def total(items):
                def work(chunk):
                    partial = sum(chunk)
                    return partial
                return sum(map_chunks(work, items, 4))
        """
        assert "SC301" in codes_in(flagged)
        assert "SC301" in codes_in(flagged_nonlocal)
        assert "SC301" not in codes_in(clean)

    def test_sc302_lambda_to_process_pool(self):
        flagged = """
            from repro.suite.parallel import run_chunks_in_processes
            def go(kernel, chunks):
                return run_chunks_in_processes(lambda c: kernel.run(c), chunks)
        """
        flagged_executor = """
            from concurrent.futures import ProcessPoolExecutor
            def go(items):
                pool = ProcessPoolExecutor()
                return pool.submit(lambda: len(items))
        """
        clean_threads = """
            from concurrent.futures import ThreadPoolExecutor
            def go(items):
                pool = ThreadPoolExecutor()
                return pool.submit(lambda: len(items))
        """
        assert "SC302" in codes_in(flagged)
        assert "SC302" in codes_in(flagged_executor)
        assert "SC302" not in codes_in(clean_threads)

    def test_sc303_unseeded_global_random(self):
        assert "SC303" in codes_in(
            "import numpy as np\nx = np.random.normal(0.0, 1.0, 8)\n"
        )
        assert "SC303" in codes_in("import random\nx = random.choice(items)\n")
        assert "SC303" not in codes_in(
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.normal(0.0, 1.0, 8)\n"
        )
        assert "SC303" not in codes_in(
            "import random\nrng = random.Random(3)\nx = rng.choice(items)\n"
        )

    def test_sc401_mutable_default(self):
        assert "SC401" in codes_in("def f(items=[]):\n    return items\n")
        assert "SC401" in codes_in("def f(*, table=dict()):\n    return table\n")
        assert "SC401" not in codes_in(
            "def f(items=None):\n    return items or []\n"
        )
        assert "SC401" not in codes_in("def f(n=3, name='x'):\n    return n\n")

    def test_sc402_bare_except(self):
        flagged = """
            def f(action):
                try:
                    return action()
                except:
                    return None
        """
        clean = """
            def f(action):
                try:
                    return action()
                except Exception:
                    return None
        """
        assert "SC402" in codes_in(flagged)
        assert "SC402" not in codes_in(clean)

    def test_sc403_generic_raise(self):
        assert "SC403" in codes_in("raise RuntimeError('boom')\n")
        assert "SC403" in codes_in("raise Exception\n")
        assert "SC403" not in codes_in(
            "from repro.errors import ModelError\nraise ModelError('bad')\n"
        )
        # ValueError/TypeError flag genuine misuse; the hierarchy docstring
        # explicitly keeps them out of SiriusError
        assert "SC403" not in codes_in("raise ValueError('bad arg')\n")

    def test_sc901_dynamic_telemetry_name(self):
        assert "SC901" in codes_in(
            "store.inc(f'serve.replica.{replica}', t)\n"
        )
        assert "SC901" in codes_in(
            "store.observe('serve.' + stage + '.seconds', t, seconds)\n"
        )
        assert "SC901" in codes_in(
            "store.observe(metric='serve.depth.{}'.format(replica), t=t, value=d)\n"
        )
        # a malformed literal is judged too
        assert "SC901" in codes_in("store.inc('Serve-E2E Seconds', t)\n")
        # span names only matter inside loops; one-off roots are free-form
        assert "SC901" in codes_in(
            "for q in queries:\n"
            "    with tracer.span(f'stage:{q}'):\n"
            "        pass\n"
        )
        assert "SC901" not in codes_in("tracer.begin_span(f'root:{name}')\n")
        # the sanctioned pattern: a literal name, what varies in a label
        assert "SC901" not in codes_in(
            "store.observe('serve.service.seconds', t, seconds, stage=label)\n"
        )
        # names through variables are someone else's problem (precise-or-silent)
        assert "SC901" not in codes_in("store.inc(metric, t)\n")

    def test_sc1002_inline_pricing_constant(self):
        assert "SC1002" in codes_in("gpu_tdp_watts = 230.0\n")
        assert "SC1002" in codes_in("SERVER_PRICE_DOLLARS = 2102.0\n")
        assert "SC1002" in codes_in("cost_per_kwh: float = 0.067\n")
        assert "SC1002" in codes_in("price(tdp_watts=230.0)\n")
        assert "SC1002" in codes_in("budget_dollars = -42.5\n")
        # the two sanctioned homes are exempt
        assert "SC1002" not in codes_in(
            "GPU_TDP_WATTS = 230.0\n", path="src/repro/platforms/spec.py"
        )
        assert "SC1002" not in codes_in(
            "JOULES_PER_KWH = 3_600_000.0\n", path="src/repro/obs/pricing.py"
        )
        # trivial bookkeeping values and derivations stay silent
        assert "SC1002" not in codes_in("total_microjoules = 0\n")
        assert "SC1002" not in codes_in("scale_watts = 1.0\n")
        assert "SC1002" not in codes_in(
            "server_watts = BASELINE_WATTS + adder\n"
        )
        assert "SC1002" not in codes_in("n_servers = 42\n")


# ---------------------------------------------------------------------------
# Framework behaviour
# ---------------------------------------------------------------------------


class TestFramework:
    def test_every_rule_has_metadata(self):
        for rule in all_rules():
            assert rule.code.startswith("SC") and len(rule.code) in (5, 6)
            assert rule.name and rule.summary and rule.rationale
            assert isinstance(rule.severity, Severity)

    def test_rule_codes_unique(self):
        assert len(set(RULE_CODES)) == len(RULE_CODES)
        assert PARSE_ERROR_CODE not in RULE_CODES

    def test_inline_suppression_single_code(self):
        src = "import numpy as np\nx = np.log(probs)  # statcheck: ignore[SC101]\n"
        report = analyze_source(src, path="src/x.py")
        assert report.findings == []
        assert [f.code for f in report.suppressed] == ["SC101"]

    def test_inline_suppression_wrong_code_does_not_hide(self):
        src = "import numpy as np\nx = np.log(probs)  # statcheck: ignore[SC999]\n"
        assert [f.code for f in analyze_source(src).findings] == ["SC101"]

    def test_inline_suppression_bare_ignores_all(self):
        src = "import numpy as np\nx = np.log(probs)  # statcheck: ignore\n"
        assert analyze_source(src).findings == []

    def test_parse_error_becomes_sc001_finding(self):
        report = analyze_source("def broken(:\n", path="src/broken.py")
        assert [f.code for f in report.findings] == [PARSE_ERROR_CODE]
        assert report.findings[0].severity is Severity.ERROR

    def test_select_rules_unknown_code_raises_statcheck_error(self):
        with pytest.raises(StatcheckError):
            select_rules(["SC101", "SC999"])
        assert StatcheckError.code == "STATCHECK"
        assert issubclass(StatcheckError, SiriusError)

    def test_severity_threshold_ordering(self):
        assert Severity.from_label("warning") is Severity.WARNING
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        with pytest.raises(StatcheckError):
            Severity.from_label("fatal")

    def test_trees_below_a_dot_directory_are_analyzed(self, tmp_path, capsys):
        """Only directories *below* a given root are skipped as hidden, so
        a package that itself lives under a dot-directory is still linted."""
        pkg = tmp_path / ".hidden" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "def f():\n    try:\n        pass\n    except:\n        pass\n"
        )
        (pkg / ".cache").mkdir()
        (pkg / ".cache" / "skipped.py").write_text("def g(items=[]):\n    pass\n")
        assert main(["lint", str(pkg)]) == 1
        out = capsys.readouterr().out
        assert report_codes(out) == ["SC402"]
        assert out.rstrip().endswith("in 1 file(s)")

    def test_errors_carry_stable_codes(self):
        from repro import errors

        assert errors.SiriusError.code == "SIRIUS"
        seen = set()
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, errors.SiriusError):
                assert obj.code, f"{name} has no code"
                seen.add(obj.code)
        assert "STATCHECK" in seen and "CONFIG" in seen


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestCLI:
    def test_fixture_file_exits_1_with_every_rule_code(self, capsys):
        exit_code = main(["lint", str(FIXTURE)])
        assert exit_code == 1
        fired = report_codes(capsys.readouterr().out)
        # exactly one violation per syntactic rule in the fixture, plus the
        # whole-program SC601 on the same lambda that trips SC302
        assert sorted(fired) == sorted(RULE_CODES + ("SC601",))

    def test_clean_file_exits_0(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import numpy as np\n\nX = np.zeros(3, dtype=float)\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_fail_on_threshold_filters_exit_code(self, tmp_path, capsys):
        warn_only = tmp_path / "warn.py"
        warn_only.write_text("import numpy as np\nx = np.log(probs)\n")
        assert main(["lint", str(warn_only)]) == 1
        assert main(["lint", str(warn_only), "--fail-on", "error"]) == 0
        capsys.readouterr()

    def test_missing_path_exits_2(self, tmp_path, capsys):
        exit_code = main(["lint", str(tmp_path / "nope")])
        assert exit_code == 2
        assert "error[STATCHECK]" in capsys.readouterr().err

    def test_select_restricts_rules(self, capsys):
        exit_code = main(["lint", str(FIXTURE), "--select", "SC402"])
        assert exit_code == 1
        assert report_codes(capsys.readouterr().out) == ["SC402"]

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_CODES:
            assert code in out


# ---------------------------------------------------------------------------
# Full-repo sweep (the CI guardrail)
# ---------------------------------------------------------------------------


@pytest.mark.statcheck_sweep
class TestRepoSweep:
    def test_src_has_zero_non_baselined_findings(self):
        """The full catalogue finds nothing in ``src/repro`` that is not
        suppressed by an inline pragma (the only suppression mechanism)."""
        report = analyze_paths([str(REPO_ROOT / "src" / "repro")])
        assert report.findings == [], report.render()

    def test_src_suppresses_exactly_three_findings_inline(self):
        report = analyze_paths([str(REPO_ROOT / "src" / "repro")])
        sites = [
            (f.path.split("src/repro/")[-1], f.line, f.code)
            for f in report.suppressed
        ]
        assert sites == [
            ("asr/decoder.py", 137, "SC101"),
            ("asr/decoder.py", 138, "SC101"),
            ("asr/dnn.py", 35, "SC102"),
        ]
