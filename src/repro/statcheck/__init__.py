"""statcheck: a Sirius-aware static-analysis pass.

An AST-based linter purpose-built for this codebase's failure modes —
numeric stability in the log-space kernels, hot-path allocation hygiene,
thread/process safety of the pthread-analog ports, and the
``repro.errors`` API contract.  See ``docs/STATCHECK.md`` for the rule
catalogue and ``repro lint --help`` for the CLI.

Programmatic use::

    from repro.statcheck import analyze_paths
    report = analyze_paths(["src/repro"])
    print(report.render())
"""

from repro.statcheck.core import (
    PARSE_ERROR_CODE,
    Finding,
    Report,
    Rule,
    RuleContext,
    Severity,
    SourceFile,
    analyze_paths,
    analyze_source,
    discover_files,
    parse_paths,
)
from repro.statcheck.rules import (
    RULE_CLASSES,
    RULE_CODES,
    all_rule_codes,
    all_rules,
    full_catalogue,
    resolve_selection,
    select_rules,
    validate_codes,
)

__all__ = [
    "Finding",
    "PARSE_ERROR_CODE",
    "RULE_CLASSES",
    "RULE_CODES",
    "Report",
    "Rule",
    "RuleContext",
    "Severity",
    "SourceFile",
    "all_rule_codes",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "discover_files",
    "full_catalogue",
    "parse_paths",
    "resolve_selection",
    "select_rules",
    "validate_codes",
]
