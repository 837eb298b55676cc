"""Implementation of the ``repro lint`` subcommand.

Exit codes (enforced by :func:`repro.cli.main`):

- ``0`` — clean (no finding at or above the ``--fail-on`` threshold)
- ``1`` — findings at or above the threshold
- ``2`` — the analyzer itself failed (unknown rule code, missing path,
  ...): a :class:`repro.errors.StatcheckError` with a stable ``code``
  attribute propagates to the top-level CLI handler.

Every run applies the whole catalogue, narrowed by ``--select`` and
``--ignore``, in one walk of each parsed file.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.statcheck.core import Severity, analyze_paths
from repro.statcheck.rules import RULE_CLASSES, resolve_selection


def list_rules_text() -> str:
    lines = ["code   sev      name                        summary"]
    for cls in RULE_CLASSES:
        rule = cls()
        lines.append(
            f"{rule.code:6s} {rule.severity.label:8s} {rule.name:27s} "
            f"{rule.summary}"
        )
    lines.append(
        "SC001  error    parse-error                 file does not parse "
        "(emitted by the framework)"
    )
    return "\n".join(lines)


def explain_rule_text(code: str) -> str:
    """Full card for one rule code; unknown codes raise StatcheckError."""
    (rule,) = resolve_selection([code], None)
    return "\n".join(
        [
            f"{rule.code} {rule.name} [{rule.severity.label}]",
            "",
            f"  {rule.summary}",
            "",
            f"  {rule.rationale}",
            "",
            f"  Suppress inline: # statcheck: ignore[{rule.code}]",
        ]
    )


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    return raw.split(",") if raw else None


def run_lint(args: argparse.Namespace) -> int:
    """Entry point called by ``repro lint``; returns the process exit code."""
    if args.list_rules:
        print(list_rules_text())
        return 0
    if args.explain:
        print(explain_rule_text(args.explain))
        return 0

    report = analyze_paths(
        args.paths, _split_codes(args.select), _split_codes(args.ignore)
    )
    print(report.render())
    threshold = Severity.from_label(args.fail_on)
    return 1 if any(f.severity >= threshold for f in report.findings) else 0


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro lint``'s options to an argparse subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--fail-on",
        choices=tuple(s.label for s in Severity),
        default="info",
        help="exit 1 if any finding is at or above this severity "
        "(default: info, i.e. any finding fails)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="CODE",
        help="print the full card for one rule code and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
