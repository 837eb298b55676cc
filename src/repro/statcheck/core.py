"""statcheck core: findings, the ``Rule`` base class, the AST walker, one pass.

The framework is deliberately small.  :func:`analyze_paths` reads and
parses every file once.  A :class:`Rule` subclass declares
``visit_<NodeType>`` methods (mirroring :class:`ast.NodeVisitor` naming),
and the walker dispatches every node of each tree to each rule that
registered interest in that node type.  Rules see a :class:`RuleContext`
carrying the ancestor chain (am I inside a loop?) and report
:class:`Finding` objects; pragmas apply per file, and de-duplication and
sorting once to everything found.

The one way to silence a finding is a pragma comment on the offending line::

    value = np.log(prob)  # statcheck: ignore[SC101]
    value = np.log(prob)  # statcheck: ignore          (all rules)

Findings on files that fail to parse are reported under the pseudo-code
``SC001`` rather than crashing the analyzer; genuine analyzer
misconfiguration raises :class:`repro.errors.StatcheckError` instead.
"""

from __future__ import annotations

import ast
import enum
import os
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.errors import StatcheckError

#: Pseudo rule code for files the analyzer could not parse.
PARSE_ERROR_CODE = "SC001"


class Severity(enum.IntEnum):
    """Finding severity; ordered so thresholds compare naturally."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Severity":
        try:
            return cls[label.upper()]
        except KeyError:
            valid = ", ".join(s.label for s in cls)
            raise StatcheckError(
                f"unknown severity {label!r} (expected one of: {valid})"
            ) from None


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    severity: Severity
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} {self.severity.label}: {self.message}"
        )


class Rule:
    """Base class for statcheck rules.

    Subclasses set the class attributes below and define any number of
    ``visit_<NodeType>(node, ctx)`` methods; the walker dispatches each AST
    node to every rule holding a matching method.
    """

    #: Stable rule code, e.g. ``"SC101"``.
    code: str = ""
    #: Kebab-case short name, e.g. ``"unguarded-prob-log"``.
    name: str = ""
    severity: Severity = Severity.WARNING
    #: One-line summary (``--list-rules``, docs).
    summary: str = ""
    #: Why the pattern is a defect in *this* codebase (docs).
    rationale: str = ""


class RuleContext:
    """Per-file state shared by all rules during one walk."""

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self._ancestors: List[ast.AST] = []
        self._sites: Set[Tuple[int, int, str]] = set()

    def in_loop(self) -> bool:
        """Is the current node lexically inside a ``for``/``while`` body?"""
        return any(isinstance(a, (ast.For, ast.While)) for a in self._ancestors)

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        if (line, col, rule.code) in self._sites:
            return  # ``a_watts = b_watts = 230.0`` binds one literal twice
        self._sites.add((line, col, rule.code))
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=col,
                code=rule.code,
                severity=rule.severity,
                message=message,
            )
        )


# ---------------------------------------------------------------------------
# AST helpers shared by the rule catalogue
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of a callee: ``np.log``, ``pool.map``, ...

    Intermediate calls collapse to ``()`` (``get_context().Pool`` becomes
    ``().Pool``); anything unresolvable yields ``""``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append("()")
    elif parts:
        parts.append("")
    else:
        return ""
    return ".".join(reversed(parts))


def normalized_call(node: ast.AST) -> str:
    """Dotted callee name with the ``numpy.`` prefix folded to ``np.``."""
    name = dotted_name(node)
    if name.startswith("numpy."):
        return "np." + name[len("numpy."):]
    return name


def identifiers(node: ast.AST) -> Iterator[str]:
    """Lowercased identifiers (names and attribute parts) in a subtree."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id.lower()
        elif isinstance(sub, ast.Attribute):
            yield sub.attr.lower()


_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def scope_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s own scope: nested def/class nodes are yielded but not
    entered, so a rule analyzing one function never double-counts children
    that belong to an inner function's scope."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_BARRIERS):
                yield child
            else:
                stack.append(child)


# ---------------------------------------------------------------------------
# Suppression pragmas
# ---------------------------------------------------------------------------

_PRAGMA = re.compile(
    r"#\s*statcheck:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]*)\])?"
)


def parse_suppressions(
    source_lines: Sequence[str],
) -> Dict[int, Optional[frozenset]]:
    """Map line number -> suppressed codes (``None`` means all codes)."""
    pragmas: Dict[int, Optional[frozenset]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        if "statcheck" not in text:
            continue
        match = _PRAGMA.search(text)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            pragmas[lineno] = None
        else:
            pragmas[lineno] = frozenset(
                code.strip().upper() for code in codes.split(",") if code.strip()
            )
    return pragmas


# ---------------------------------------------------------------------------
# Analysis entry points
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """Outcome of one analysis: reported and pragma-suppressed findings."""

    files_scanned: int
    findings: List[Finding]
    suppressed: List[Finding]

    def render(self) -> str:
        """The text report: one line per finding, then a summary line."""
        counts = Counter(finding.severity for finding in self.findings)
        breakdown = ", ".join(
            f"{counts[severity]} {severity.label}"
            for severity in Severity
            if counts[severity]
        )
        summary = (
            f"statcheck: {len(self.findings)} finding(s)"
            + (f" ({breakdown})" if breakdown else "")
            + f" in {self.files_scanned} file(s)"
        )
        if self.suppressed:
            summary += f"; {len(self.suppressed)} suppressed inline"
        return "\n".join([f.render() for f in self.findings] + [summary])


class _Walker(ast.NodeVisitor):
    def __init__(self, rules: Sequence[Rule], ctx: RuleContext):
        self._ctx = ctx
        self._handlers: Dict[type, List[Callable]] = {}
        for rule in rules:
            for attr in dir(rule):
                if not attr.startswith("visit_"):
                    continue
                node_type = getattr(ast, attr[len("visit_"):], None)
                if isinstance(node_type, type) and issubclass(node_type, ast.AST):
                    self._handlers.setdefault(node_type, []).append(
                        getattr(rule, attr)
                    )

    def visit(self, node: ast.AST) -> None:
        for handler in self._handlers.get(type(node), ()):
            handler(node, self._ctx)
        self._ctx._ancestors.append(node)
        try:
            for child in ast.iter_child_nodes(node):
                self.visit(child)
        finally:
            self._ctx._ancestors.pop()


def discover_files(paths: Iterable) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Hidden and ``__pycache__`` directories are skipped only *below* each
    given root, so a tree that itself lives under a dot-directory is still
    analyzed.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not any(
                    part.startswith(".") or part == "__pycache__"
                    for part in candidate.relative_to(path).parts
                )
            )
        elif path.is_file():
            files.append(path)
        else:
            raise StatcheckError(f"path does not exist: {path}")
    return list(dict.fromkeys(files))


def _display_path(file_path: Path) -> str:
    try:
        display = os.path.relpath(file_path, os.getcwd())
    except ValueError:  # different drive (Windows); keep absolute
        display = str(file_path)
    return display.replace(os.sep, "/")


def analyze_paths(
    paths: Iterable,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Report:
    """Run the rule catalogue over every ``.py`` file under ``paths``.

    ``select``/``ignore`` take rule codes (``None``: the full catalogue).
    Each file is read, parsed and walked once, and its own pragmas settle
    its findings; a file that does not parse becomes its ``SC001`` finding,
    which no pragma silences.  Unreadable files raise
    :class:`StatcheckError`.
    """
    from repro.statcheck.rules import resolve_selection  # builds on this module

    rules = resolve_selection(select, ignore)
    files = discover_files(paths)
    findings: Set[Finding] = set()
    suppressed: Set[Finding] = set()
    for file_path in files:
        try:
            text = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise StatcheckError(f"cannot read {file_path}: {exc}") from exc
        path = _display_path(file_path)
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            findings.add(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    code=PARSE_ERROR_CODE,
                    severity=Severity.ERROR,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        ctx = RuleContext(path)
        _Walker(rules, ctx).visit(tree)
        pragmas = parse_suppressions(text.splitlines())
        for finding in ctx.findings:
            codes = pragmas.get(finding.line, frozenset())
            if codes is None or finding.code in codes:  # ``None``: bare ``ignore``
                suppressed.add(finding)
            else:
                findings.add(finding)

    def ordered(found: Set[Finding]) -> List[Finding]:
        return sorted(found, key=lambda f: (f.path, f.line, f.col, f.code, f.message))

    return Report(len(files), ordered(findings), ordered(suppressed))
