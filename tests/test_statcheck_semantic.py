"""Tests for the whole-program semantic analysis layer (SC5xx-SC7xx).

Layout mirrors the acceptance criteria:

- project-model and call-graph unit tests (module naming, hierarchy,
  edge resolution);
- one test class per rule family over the fixture packages in
  ``tests/fixtures/statcheck/semantic/``, asserting every true positive
  fires and every near-miss stays clean;
- CLI surface (whole-program rules on every run, ``--select``,
  ``--ignore``, ``--explain``);
- golden-file tests pinning the text report's finding lines byte-for-byte
  (written by the analyzer before the syntactic and whole-program passes
  ran in one pass);
- the whole-program rules over ``src/repro``: no findings, and a model
  that covers the whole tree.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import StatcheckError
from repro.statcheck import analyze_paths, parse_paths
from repro.statcheck.rules import resolve_selection, validate_codes
from repro.statcheck.semantic.callgraph import build_call_graph
from repro.statcheck.semantic.model import build_model
from repro.statcheck.semantic.rules import SEMANTIC_RULE_CODES

REPO_ROOT = Path(__file__).resolve().parents[1]
SEMANTIC_FIXTURES = REPO_ROOT / "tests" / "fixtures" / "statcheck" / "semantic"
GOLDEN_DIR = REPO_ROOT / "tests" / "fixtures" / "statcheck" / "golden"

DETPKG = str(SEMANTIC_FIXTURES / "detpkg")
PROCPKG = str(SEMANTIC_FIXTURES / "procpkg")
SVCPKG = str(SEMANTIC_FIXTURES / "svcpkg")
ASYNCPKG = str(SEMANTIC_FIXTURES / "asyncpkg")


def model_of(*paths):
    sources, _ = parse_paths(paths)
    return build_model(sources)


def fired(report, code):
    return [f for f in report.findings if f.code == code]


def report_codes(out):
    """Rule codes of a text report's finding lines (the summary excluded)."""
    return {line.split()[1] for line in out.splitlines()[:-1]}


# ---------------------------------------------------------------------------
# Project model and call graph
# ---------------------------------------------------------------------------


class TestProjectModel:
    def test_module_names_derived_from_package_layout(self):
        model = model_of(DETPKG)
        assert "detpkg.exporters" in model.modules
        assert "detpkg.helpers" in model.modules

    def test_functions_and_classes_indexed_by_qname(self):
        model = model_of(SVCPKG)
        assert "svcpkg.services.LazyCacheService" in model.classes
        assert "svcpkg.services.LazyCacheService.process" in model.functions

    def test_subclasses_of_matches_hierarchy_root_by_name(self):
        model = model_of(SVCPKG)
        names = {cls.name for cls in model.subclasses_of("Service")}
        assert "LazyCacheService" in names
        assert "CollectingService" in names  # defined in a sibling module
        assert "Service" not in names  # the root itself is not a subclass

    def test_import_bindings_resolve_cross_module(self):
        model = model_of(DETPKG)
        resolved = model.resolve("detpkg.exporters", "spread")
        assert resolved == "detpkg.helpers.spread"


class TestCallGraph:
    def test_cross_module_edge_through_import_binding(self):
        model = model_of(DETPKG)
        graph = build_call_graph(model)
        callees = {
            e.callee for e in graph.callees("detpkg.exporters.export_report")
        }
        assert "detpkg.helpers.spread" in callees
        assert "detpkg.helpers.shuffle_tags" in callees

    def test_self_call_edge_within_class(self):
        model = model_of(SVCPKG)
        graph = build_call_graph(model)
        callees = {
            e.callee
            for e in graph.callees("svcpkg.services.CountingService.process")
        }
        assert "svcpkg.services.CountingService._bump" in callees

    def test_unresolvable_receivers_produce_no_edges(self):
        model = model_of(DETPKG)
        graph = build_call_graph(model)
        for edge in graph.edges:
            assert edge.callee in model.functions


# ---------------------------------------------------------------------------
# SC5xx determinism taint
# ---------------------------------------------------------------------------


class TestDeterminismTaint:
    def test_true_positives_fire_with_witness_chains(self):
        report = analyze_paths([DETPKG])
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
        report = analyze_paths([DETPKG])
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
        report = analyze_paths([str(pkg)])
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
        report = analyze_paths([str(pkg)])
        assert fired(report, "SC501") == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# SC6xx process-boundary escape analysis
# ---------------------------------------------------------------------------


class TestProcessBoundaryEscape:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_paths([PROCPKG])

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
        return analyze_paths([SVCPKG])

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
        return analyze_paths([ASYNCPKG])

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
        report = analyze_paths([str(pkg)])
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
        report = analyze_paths([str(pkg)])
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
    def test_whole_program_rules_run_by_default(self, capsys):
        exit_code = main(["lint", DETPKG])
        assert exit_code == 1
        assert "SC501" in report_codes(capsys.readouterr().out)

    def test_select_narrows_to_a_whole_program_code(self, capsys):
        exit_code = main(["lint", DETPKG, "--select", "SC501"])
        assert exit_code == 1
        assert report_codes(capsys.readouterr().out) == {"SC501"}

    def test_ignore_unknown_code_exits_2(self, capsys):
        exit_code = main(["lint", DETPKG, "--ignore", "SC999"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "error[STATCHECK]" in err
        assert "valid codes" in err

    def test_ignore_filters_codes(self, capsys):
        exit_code = main(["lint", DETPKG, "--ignore", "SC303"])
        assert exit_code == 1
        assert "SC303" not in report_codes(capsys.readouterr().out)

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


# ---------------------------------------------------------------------------
# Golden files
# ---------------------------------------------------------------------------


class TestGoldenReports:
    @pytest.fixture(autouse=True)
    def _repo_cwd(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)

    def _finding_lines(self, target, capsys):
        assert main(["lint", target]) == 1
        lines = capsys.readouterr().out.splitlines(keepends=True)
        return "".join(lines[:-1])  # the summary line is not pinned

    def test_text_report_matches_golden(self, capsys):
        assert self._finding_lines(
            "tests/fixtures/statcheck/semantic", capsys
        ) == (GOLDEN_DIR / "semantic-findings.txt").read_text()

    def test_violations_report_matches_golden(self, capsys):
        assert self._finding_lines(
            "tests/fixtures/statcheck/violations.py", capsys
        ) == (GOLDEN_DIR / "violations-findings.txt").read_text()

    def test_reports_are_byte_identical_across_runs(self):
        fixtures = ["tests/fixtures/statcheck/semantic"]
        first = analyze_paths(fixtures).render()
        assert first == analyze_paths(fixtures).render()


# ---------------------------------------------------------------------------
# Whole-program model over the repo
# ---------------------------------------------------------------------------


@pytest.mark.statcheck_sweep
class TestSemanticRepoSweep:
    def test_src_is_semantically_clean(self):
        report = analyze_paths(
            [str(REPO_ROOT / "src" / "repro")], select=sorted(SEMANTIC_RULE_CODES)
        )
        assert report.findings == [], report.render()

    def test_model_covers_the_whole_tree(self):
        model = model_of(str(REPO_ROOT / "src" / "repro"))
        assert len(model.modules) > 50
        assert len(model.functions) > 400
        assert len(build_call_graph(model).edges) > 500
