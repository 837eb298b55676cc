"""statcheck: a Sirius-aware static-analysis pass.

An AST-based linter that keeps the five rules that have caught code in
this codebase: unguarded probability logs and unpinned accumulator dtypes
in the log-space kernels, arrays grown inside loops, dynamic telemetry
names, and power/price constants outside the spec.  See
``docs/STATCHECK.md`` for the rule catalogue and ``repro lint --help``
for the CLI.

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
    analyze_paths,
)
from repro.statcheck.rules import RULE_CLASSES, resolve_selection

__all__ = [
    "Finding",
    "PARSE_ERROR_CODE",
    "RULE_CLASSES",
    "Report",
    "Rule",
    "RuleContext",
    "Severity",
    "analyze_paths",
    "resolve_selection",
]
