"""Tests for the statcheck static-analysis subsystem.

Layout mirrors the acceptance criteria:

- one dedicated unit test per rule, each with a positive (flagged) and a
  negative (clean) snippet;
- framework tests (suppression pragmas, parse errors, file discovery,
  rule selection);
- CLI integration (exit 0 clean / 1 findings / 2 analyzer failure) and
  the golden report over the one-violation-per-rule fixture;
- the full-repo sweep: the whole catalogue over ``src/repro`` finds
  nothing but the two findings suppressed inline (marked
  ``statcheck_sweep``).
"""

import tempfile
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import SiriusError, StatcheckError
from repro.statcheck import (
    PARSE_ERROR_CODE,
    RULE_CLASSES,
    Severity,
    analyze_paths,
    resolve_selection,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "statcheck" / "violations.py"
GOLDEN = REPO_ROOT / "tests" / "fixtures" / "statcheck" / "golden" / "violations-findings.txt"
RULE_CODES = tuple(cls.code for cls in RULE_CLASSES)


def report_codes(out: str):
    """Rule codes of a text report's finding lines (the summary excluded)."""
    return [line.split()[1] for line in out.splitlines()[:-1]]


def analyze_source(source: str, path: str = "src/repro/snippet.py"):
    """The whole catalogue over one module's source, written at ``path``
    (SC1002 judges the path) under a scratch directory."""
    with tempfile.TemporaryDirectory() as root:
        target = Path(root) / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return analyze_paths([target])


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
        for rule in resolve_selection(None, None):
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
            analyze_paths([FIXTURE], select=["SC101", "SC999"])
        assert StatcheckError.code == "STATCHECK"
        assert issubclass(StatcheckError, SiriusError)

    def test_unknown_code_raises_with_full_listing(self):
        with pytest.raises(StatcheckError) as excinfo:
            resolve_selection(["SC999"], None)
        message = str(excinfo.value)
        assert "SC999" in message
        assert message.endswith(f"(valid codes: {', '.join(RULE_CODES)})")

    def test_ignore_subtracts_from_catalogue(self):
        codes = [rule.code for rule in resolve_selection(None, ["sc101"])]
        assert codes == [code for code in RULE_CODES if code != "SC101"]

    def test_everything_ignored_is_an_error(self):
        with pytest.raises(StatcheckError):
            resolve_selection(None, list(RULE_CODES))

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
        (pkg / "mod.py").write_text("import numpy as np\nx = np.log(probs)\n")
        (pkg / ".cache").mkdir()
        (pkg / ".cache" / "skipped.py").write_text("gpu_tdp_watts = 230.0\n")
        assert main(["lint", str(pkg)]) == 1
        out = capsys.readouterr().out
        assert report_codes(out) == ["SC101"]
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
        # exactly one violation per rule in the fixture, in code order
        assert fired == list(RULE_CODES)

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
        exit_code = main(["lint", str(FIXTURE), "--select", "SC201"])
        assert exit_code == 1
        assert report_codes(capsys.readouterr().out) == ["SC201"]

    def test_retired_code_exits_2_with_the_known_codes(self, capsys):
        assert main(["lint", str(FIXTURE), "--select", "SC501"]) == 2
        err = capsys.readouterr().err
        assert "error[STATCHECK]: unknown rule code 'SC501'" in err
        assert f"(valid codes: {', '.join(RULE_CODES)})" in err

    def test_ignore_unknown_code_exits_2(self, capsys):
        assert main(["lint", str(FIXTURE), "--ignore", "SC999"]) == 2
        err = capsys.readouterr().err
        assert "error[STATCHECK]" in err
        assert "valid codes" in err

    def test_ignore_filters_codes(self, capsys):
        assert main(["lint", str(FIXTURE), "--ignore", "SC101,SC901"]) == 1
        assert report_codes(capsys.readouterr().out) == ["SC103", "SC201", "SC1002"]

    def test_explain_known_code(self, capsys):
        assert main(["lint", "--explain", "SC201"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SC201 array-grow-in-loop [warning]\n")
        assert "# statcheck: ignore[SC201]" in out

    def test_explain_unknown_code_exits_2(self, capsys):
        assert main(["lint", "--explain", "SC000"]) == 2
        assert "error[STATCHECK]" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()[1:]]
        assert listed == list(RULE_CODES) + [PARSE_ERROR_CODE]

    def test_violations_report_matches_golden(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)  # finding paths are cwd-relative
        assert main(["lint", "tests/fixtures/statcheck/violations.py"]) == 1
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert "".join(lines[:-1]) == GOLDEN.read_text()  # summary not pinned

    def test_reports_are_byte_identical_across_runs(self):
        fixtures = [REPO_ROOT / "tests" / "fixtures"]
        assert analyze_paths(fixtures).render() == analyze_paths(fixtures).render()


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

    def test_src_suppresses_exactly_two_findings_inline(self):
        report = analyze_paths([str(REPO_ROOT / "src" / "repro")])
        sites = [
            (f.path.split("src/repro/")[-1], f.line, f.code)
            for f in report.suppressed
        ]
        assert sites == [
            ("asr/decoder.py", 137, "SC101"),
            ("asr/decoder.py", 138, "SC101"),
        ]
