"""Tests for the whole-program semantic analysis layer (SC5xx-SC7xx).

Layout mirrors the acceptance criteria:

- project-model and call-graph unit tests (module naming, hierarchy,
  edge resolution, deterministic DOT output);
- one test class per rule family over the fixture packages in
  ``tests/fixtures/statcheck/semantic/``, asserting every true positive
  fires and every near-miss stays clean;
- CLI surface (``--semantic``, ``--ignore``, ``--explain``,
  ``--call-graph``, SARIF format, semantic auto-enable via ``--select``);
- golden-file tests pinning the JSON and SARIF reports byte-for-byte,
  plus the JSON -> findings -> baseline round-trip;
- the semantic repo sweep: ``src/repro`` must be semantically clean.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import StatcheckError
from repro.statcheck import (
    Baseline,
    findings_from_json,
    render_json,
    render_sarif,
)
from repro.statcheck.rules import resolve_selection, validate_codes
from repro.statcheck.semantic.callgraph import build_call_graph
from repro.statcheck.semantic.model import build_model
from repro.statcheck.semantic.rules import (
    SEMANTIC_RULE_CODES,
    analyze_semantic,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SEMANTIC_FIXTURES = REPO_ROOT / "tests" / "fixtures" / "statcheck" / "semantic"
GOLDEN_DIR = REPO_ROOT / "tests" / "fixtures" / "statcheck" / "golden"

DETPKG = str(SEMANTIC_FIXTURES / "detpkg")
PROCPKG = str(SEMANTIC_FIXTURES / "procpkg")
SVCPKG = str(SEMANTIC_FIXTURES / "svcpkg")
ASYNCPKG = str(SEMANTIC_FIXTURES / "asyncpkg")


def codes_by_function(report):
    """(code, message) pairs for compact containment assertions."""
    return [(f.code, f.message) for f in report.findings]


def fired(report, code):
    return [f for f in report.findings if f.code == code]


# ---------------------------------------------------------------------------
# Project model and call graph
# ---------------------------------------------------------------------------


class TestProjectModel:
    def test_module_names_derived_from_package_layout(self):
        model = build_model([DETPKG])
        assert "detpkg.exporters" in model.modules
        assert "detpkg.helpers" in model.modules

    def test_functions_and_classes_indexed_by_qname(self):
        model = build_model([SVCPKG])
        assert "svcpkg.services.LazyCacheService" in model.classes
        assert "svcpkg.services.LazyCacheService.process" in model.functions

    def test_subclasses_of_matches_hierarchy_root_by_name(self):
        model = build_model([SVCPKG])
        names = {cls.name for cls in model.subclasses_of("Service")}
        assert "LazyCacheService" in names
        assert "CollectingService" in names  # defined in a sibling module
        assert "Service" not in names  # the root itself is not a subclass

    def test_import_bindings_resolve_cross_module(self):
        model = build_model([DETPKG])
        resolved = model.resolve("detpkg.exporters", "spread")
        assert resolved == "detpkg.helpers.spread"


class TestCallGraph:
    def test_cross_module_edge_through_import_binding(self):
        model = build_model([DETPKG])
        graph = build_call_graph(model)
        callees = {
            e.callee for e in graph.callees("detpkg.exporters.export_report")
        }
        assert "detpkg.helpers.spread" in callees
        assert "detpkg.helpers.shuffle_tags" in callees

    def test_self_call_edge_within_class(self):
        model = build_model([SVCPKG])
        graph = build_call_graph(model)
        callees = {
            e.callee
            for e in graph.callees("svcpkg.services.CountingService.process")
        }
        assert "svcpkg.services.CountingService._bump" in callees

    def test_unresolvable_receivers_produce_no_edges(self):
        model = build_model([DETPKG])
        graph = build_call_graph(model)
        for edge in graph.edges:
            assert edge.callee in model.functions

    def test_dot_output_is_deterministic(self):
        dots = set()
        for _ in range(2):
            model = build_model([SVCPKG])
            dots.add(build_call_graph(model).to_dot())
        assert len(dots) == 1
        dot = dots.pop()
        assert dot.startswith("digraph callgraph {")
        assert '"svcpkg.services.CountingService.process"' in dot


# ---------------------------------------------------------------------------
# SC5xx determinism taint
# ---------------------------------------------------------------------------


class TestDeterminismTaint:
    def test_true_positives_fire_with_witness_chains(self):
        report = analyze_semantic([DETPKG])
        sc501 = fired(report, "SC501")
        assert len(sc501) == 2
        by_sink = {f.message.split(" in ")[1].split(" ")[0]: f for f in sc501}
        assert set(by_sink) == {
            "detpkg.helpers.jitter",
            "detpkg.helpers.shuffle_tags",
        }
        # multi-hop witness: root -> spread -> jitter, with call sites
        jitter = by_sink["detpkg.helpers.jitter"]
        assert "detpkg.exporters.export_report" in jitter.message
        assert "-> detpkg.helpers.spread" in jitter.message
        assert "-> detpkg.helpers.jitter" in jitter.message
        assert "(called at" in jitter.message

    def test_near_misses_stay_clean(self):
        report = analyze_semantic([DETPKG])
        blob = "\n".join(f.message for f in fired(report, "SC501"))
        # seeded instance RNG, sorted set, and unrooted sinks don't taint
        assert "seeded_jitter" not in blob
        assert "stable_tags" not in blob
        assert "unrooted_sampler" not in blob
        assert "export_clean" not in blob

    def test_pragma_root_is_honoured(self, tmp_path):
        pkg = tmp_path / "minipkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "def stamped():  # statcheck: deterministic\n"
            "    return time.time()\n"
            "\n"
            "\n"
            "def unmarked():\n"
            "    return time.time()\n"
        )
        report = analyze_semantic([str(pkg)])
        sc501 = fired(report, "SC501")
        assert len(sc501) == 1
        assert "minipkg.mod.stamped" in sc501[0].message

    def test_inline_suppression_applies_to_semantic_findings(self, tmp_path):
        pkg = tmp_path / "suppkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "def stamped():  # statcheck: deterministic\n"
            "    return time.time()  # statcheck: ignore[SC501]\n"
        )
        report = analyze_semantic([str(pkg)])
        assert fired(report, "SC501") == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# SC6xx process-boundary escape analysis
# ---------------------------------------------------------------------------


class TestProcessBoundaryEscape:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_semantic([PROCPKG])

    def test_sc601_dataflow_true_positives(self, report):
        blob = "\n".join(f.message for f in fired(report, "SC601"))
        assert "escaped_lambda" in blob  # lambda via local variable
        assert "escaped_generator" in blob  # generator expression
        assert "process_pool_indirect" in blob  # pool submit via dataflow

    def test_sc601_near_misses_stay_clean(self, report):
        blob = "\n".join(f.message for f in fired(report, "SC601"))
        assert "module_level_worker" not in blob
        assert "thread_pool_closure" not in blob  # thread pools don't pickle

    def test_sc602_captured_lock(self, report):
        sc602 = fired(report, "SC602")
        assert len(sc602) == 1
        assert "captured_lock" in sc602[0].message
        assert "a lock" in sc602[0].message

    def test_sc603_envelope_fields(self, report):
        blob = "\n".join(f.message for f in fired(report, "SC603"))
        assert "lazy_payload_request" in blob  # generator payload
        assert "callback_request" in blob  # lambda payload
        assert "handle_request" in blob  # open file handle
        assert "plain_request" not in blob  # materialized list is fine
        assert "streamed_outcome" in blob  # generator in a StageOutcome
        assert "finished_outcome" not in blob  # list and tuple are fine


# ---------------------------------------------------------------------------
# SC7xx shared-state concurrency hazards
# ---------------------------------------------------------------------------


class TestSharedStateHazards:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_semantic([SVCPKG])

    def test_sc701_lazy_hot_path_write(self, report):
        blob = "\n".join(f.message for f in fired(report, "SC701"))
        assert "LazyCacheService.process() writes self._cache" in blob

    def test_sc701_through_self_call_closure(self, report):
        blob = "\n".join(f.message for f in fired(report, "SC701"))
        assert "CountingService._bump() writes self.seen" in blob

    def test_sc701_near_misses_stay_clean(self, report):
        blob = "\n".join(f.message for f in fired(report, "SC701"))
        assert "WarmupService" not in blob  # warmup() initializes
        assert "LockedService" not in blob  # lock-guarded + initialized

    def test_sc702_module_state_from_hot_path(self, report):
        sc702 = fired(report, "SC702")
        assert len(sc702) == 1
        assert "_RESULTS" in sc702[0].message
        assert "CollectingService" in sc702[0].message

    def test_sc702_lock_and_thread_local_near_misses(self, report):
        blob = "\n".join(f.message for f in fired(report, "SC702"))
        assert "_STATS" not in blob  # lock-guarded
        assert "_SCRATCH" not in blob  # threading.local


# ---------------------------------------------------------------------------
# SC801 async hygiene
# ---------------------------------------------------------------------------


class TestAsyncBlockingCall:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_semantic([ASYNCPKG])

    def test_true_positives_fire(self, report):
        blob = "\n".join(f.message for f in fired(report, "SC801"))
        assert "time.sleep() in asyncpkg.frontdoor.blocking_backoff" in blob
        assert "open() file I/O in asyncpkg.frontdoor.read_config" in blob
        assert "time.sleep() in asyncpkg.frontdoor.direct_sleep" in blob
        assert "subprocess.run() in asyncpkg.frontdoor.shell_out" in blob
        assert "Future.result() with no timeout" in blob
        assert "socket .recv() in asyncpkg.frontdoor.proxy_bytes" in blob

    def test_witness_chain_names_the_async_root(self, report):
        backoff = next(
            f for f in fired(report, "SC801")
            if "blocking_backoff" in f.message
        )
        assert "async def asyncpkg.frontdoor.handle_request" in backoff.message
        assert "-> asyncpkg.frontdoor.blocking_backoff" in backoff.message
        assert "(called at" in backoff.message

    def test_near_misses_stay_clean(self, report):
        blob = "\n".join(f.message for f in fired(report, "SC801"))
        assert "polite_sleep" not in blob       # asyncio.sleep awaits
        assert "bounded_wait" not in blob       # result(timeout=...) is bounded
        assert "sync_retry" not in blob         # never reachable from async
        assert "fetch_blob" not in blob         # run_in_executor by reference
        assert "offloaded" not in blob

    def test_bare_from_import_sleep_is_resolved(self, tmp_path):
        pkg = tmp_path / "barepkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(
            "from time import sleep\n"
            "\n"
            "\n"
            "async def nap():\n"
            "    sleep(1)\n"
        )
        report = analyze_semantic([str(pkg)])
        sc801 = fired(report, "SC801")
        assert len(sc801) == 1
        assert "time.sleep()" in sc801[0].message

    def test_sync_only_project_has_no_findings(self, tmp_path):
        pkg = tmp_path / "syncpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "def pause():\n"
            "    time.sleep(1)\n"
        )
        report = analyze_semantic([str(pkg)])
        assert fired(report, "SC801") == []


# ---------------------------------------------------------------------------
# Rule selection and catalogue
# ---------------------------------------------------------------------------


class TestSelection:
    def test_semantic_codes_are_in_the_catalogue(self):
        assert set(SEMANTIC_RULE_CODES) == {
            "SC501", "SC601", "SC602", "SC603", "SC701", "SC702", "SC801",
        }
        validate_codes(SEMANTIC_RULE_CODES)  # must not raise

    def test_unknown_code_raises_with_full_listing(self):
        with pytest.raises(StatcheckError) as excinfo:
            validate_codes(["SC999"])
        message = str(excinfo.value)
        assert "SC999" in message
        for code in ("SC101", "SC501", "SC702"):
            assert code in message

    def test_resolve_selection_splits_families(self):
        syntactic, semantic = resolve_selection(["SC101", "SC501"], None)
        assert [r.code for r in syntactic] == ["SC101"]
        assert [r.code for r in semantic] == ["SC501"]

    def test_ignore_subtracts_from_catalogue(self):
        syntactic, semantic = resolve_selection(None, ["SC501", "SC101"])
        assert "SC101" not in [r.code for r in syntactic]
        assert "SC501" not in [r.code for r in semantic]
        assert [r.code for r in semantic] != []

    def test_everything_ignored_is_an_error(self):
        from repro.statcheck.rules import all_rule_codes

        with pytest.raises(StatcheckError):
            resolve_selection(None, list(all_rule_codes()))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestSemanticCLI:
    def test_semantic_flag_runs_whole_program_rules(self, capsys):
        exit_code = main(
            ["lint", DETPKG, "--no-baseline", "--semantic", "--format", "json"]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert "SC501" in {f["code"] for f in payload["findings"]}

    def test_without_semantic_flag_sc5xx_stays_off(self, capsys):
        exit_code = main(
            ["lint", DETPKG, "--no-baseline", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert "SC501" not in {f["code"] for f in payload["findings"]}
        assert exit_code == 1  # the syntactic SC303 near-miss still fires

    def test_selecting_semantic_code_auto_enables_pass(self, capsys):
        exit_code = main(
            [
                "lint", DETPKG, "--no-baseline",
                "--select", "SC501", "--format", "json",
            ]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["code"] for f in payload["findings"]} == {"SC501"}

    def test_ignore_unknown_code_exits_2(self, capsys):
        exit_code = main(["lint", DETPKG, "--ignore", "SC999"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "error[STATCHECK]" in err
        assert "valid codes" in err

    def test_ignore_filters_codes(self, capsys):
        exit_code = main(
            [
                "lint", DETPKG, "--no-baseline", "--semantic",
                "--ignore", "SC303", "--format", "json",
            ]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert "SC303" not in {f["code"] for f in payload["findings"]}

    def test_explain_known_code(self, capsys):
        assert main(["lint", "--explain", "SC501"]) == 0
        out = capsys.readouterr().out
        assert "SC501" in out and "determinism-taint" in out
        assert "whole-program" in out
        assert "# statcheck: ignore[SC501]" in out

    def test_explain_unknown_code_exits_2(self, capsys):
        assert main(["lint", "--explain", "SC000"]) == 2
        assert "error[STATCHECK]" in capsys.readouterr().err

    def test_list_rules_includes_semantic_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in SEMANTIC_RULE_CODES:
            assert code in out

    def test_call_graph_writes_dot(self, tmp_path, capsys):
        dot_path = tmp_path / "graph.dot"
        exit_code = main(
            [
                "lint", SVCPKG, "--no-baseline",
                "--call-graph", str(dot_path),
            ]
        )
        assert exit_code == 1  # svcpkg has semantic findings
        text = dot_path.read_text()
        assert text.startswith("digraph callgraph {")
        assert "CountingService._bump" in text
        capsys.readouterr()

    def test_sarif_format_is_valid_and_fails_run(self, capsys):
        exit_code = main(
            ["lint", DETPKG, "--no-baseline", "--semantic", "--format", "sarif"]
        )
        assert exit_code == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "statcheck"
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            location = result["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] >= 1


# ---------------------------------------------------------------------------
# Golden files and round-trips
# ---------------------------------------------------------------------------


def _fixture_findings():
    """Deterministic finding set: the full semantic fixture tree, analyzed
    with repo-relative paths so reports are location-independent."""
    report = analyze_semantic(["tests/fixtures/statcheck/semantic"])
    return report.findings, len(report.model.modules)


class TestGoldenReports:
    @pytest.fixture(autouse=True)
    def _repo_cwd(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)

    def test_json_report_matches_golden(self):
        findings, files = _fixture_findings()
        rendered = render_json(findings, files_scanned=files) + "\n"
        golden = (GOLDEN_DIR / "semantic-report.json").read_text()
        assert rendered == golden

    def test_sarif_report_matches_golden(self):
        findings, files = _fixture_findings()
        rendered = render_sarif(findings, files_scanned=files) + "\n"
        golden = (GOLDEN_DIR / "semantic-report.sarif").read_text()
        assert rendered == golden

    def test_reports_are_byte_identical_across_runs(self):
        first_findings, files = _fixture_findings()
        second_findings, _ = _fixture_findings()
        assert render_json(first_findings, files) == render_json(
            second_findings, files
        )
        assert render_sarif(first_findings, files) == render_sarif(
            second_findings, files
        )

    def test_json_round_trips_into_baseline_writer(self, tmp_path):
        findings, files = _fixture_findings()
        recovered = findings_from_json(render_json(findings, files))
        assert [
            (f.path, f.line, f.col, f.code, f.severity, f.message, f.source)
            for f in recovered
        ] == [
            (f.path, f.line, f.col, f.code, f.severity, f.message, f.source)
            for f in findings
        ]
        direct = tmp_path / "direct.json"
        roundtrip = tmp_path / "roundtrip.json"
        Baseline.write(direct, findings)
        Baseline.write(roundtrip, recovered)
        assert direct.read_text() == roundtrip.read_text()

    def test_findings_from_json_rejects_malformed_input(self):
        with pytest.raises(StatcheckError):
            findings_from_json("{not json")
        with pytest.raises(StatcheckError):
            findings_from_json('{"version": 99, "findings": []}')
        with pytest.raises(StatcheckError):
            findings_from_json(
                '{"version": 1, "findings": [{"path": "x"}]}'
            )


# ---------------------------------------------------------------------------
# Semantic repo sweep (the CI guardrail)
# ---------------------------------------------------------------------------


@pytest.mark.statcheck_sweep
class TestSemanticRepoSweep:
    def test_src_is_semantically_clean(self):
        report = analyze_semantic([str(REPO_ROOT / "src" / "repro")])
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )

    def test_model_covers_the_whole_tree(self):
        report = analyze_semantic([str(REPO_ROOT / "src" / "repro")])
        assert len(report.model.modules) > 50
        assert len(report.model.functions) > 400
        assert len(report.graph.edges) > 500
