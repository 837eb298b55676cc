"""statcheck core: findings, the ``Rule`` base class, the AST walker, one pass.

The framework is deliberately small.  :func:`analyze_paths` reads and
parses every file once.  A :class:`Rule` subclass declares
``visit_<NodeType>`` methods (mirroring :class:`ast.NodeVisitor` naming),
and the walker dispatches every node of each tree to each rule that
registered interest in that node type.  The whole-program rules
(:mod:`repro.statcheck.semantic`) then run over one project model built
from the same trees, and pragmas, de-duplication and sorting are applied
once to everything found.  Rules see a :class:`RuleContext` carrying the
ancestor chain (am I inside a loop?  inside a kernel ``run`` method?) and
report :class:`Finding` objects.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
    Type, Union,
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.code} {self.name}>"


class RuleContext:
    """Per-file state shared by all rules during one walk."""

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self._ancestors: List[ast.AST] = []
        self._sites: Set[Tuple[int, int, str]] = set()

    # -- tree navigation -----------------------------------------------------

    def ancestors(self) -> Tuple[ast.AST, ...]:
        """Ancestors of the node currently being visited, root first."""
        return tuple(self._ancestors)

    def in_loop(self) -> bool:
        """Is the current node lexically inside a ``for``/``while`` body?"""
        return any(isinstance(a, (ast.For, ast.While)) for a in self._ancestors)

    def enclosing(self, *types: Type[ast.AST]) -> Optional[ast.AST]:
        for ancestor in reversed(self._ancestors):
            if isinstance(ancestor, types):
                return ancestor
        return None

    def enclosing_function(self) -> Optional[ast.AST]:
        return self.enclosing(ast.FunctionDef, ast.AsyncFunctionDef)

    def enclosing_class(self) -> Optional[ast.ClassDef]:
        node = self.enclosing(ast.ClassDef)
        return node if isinstance(node, ast.ClassDef) else None

    # -- reporting -----------------------------------------------------------

    def report(
        self,
        rule: Rule,
        node: ast.AST,
        message: str,
        severity: Optional[Severity] = None,
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        if (line, col, rule.code) in self._sites:
            return  # overlapping-scope rules may fire twice on one site
        self._sites.add((line, col, rule.code))
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=col,
                code=rule.code,
                severity=severity if severity is not None else rule.severity,
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
class SourceFile:
    """One parsed module, read once and shared by both rule passes."""

    file: Path                     #: location on disk (module naming)
    path: str                      #: display path, as reported in findings
    source_lines: List[str]
    tree: ast.Module


@dataclass
class Report:
    """Outcome of one analysis: reported and pragma-suppressed findings."""

    files_scanned: int
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

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


def _check_tree(source: SourceFile, rules: Sequence[Rule]) -> List[Finding]:
    """Findings of the syntactic ``rules`` over one parsed module."""
    ctx = RuleContext(source.path)
    if rules:
        _Walker(rules, ctx).visit(source.tree)
    return ctx.findings


def parse_source(
    text: str, path: str, file: Optional[Path] = None
) -> Union[SourceFile, Finding]:
    """Parse one module; a file that does not parse becomes its SC001 finding."""
    source_lines = text.splitlines()
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        return Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            code=PARSE_ERROR_CODE,
            severity=Severity.ERROR,
            message=f"file does not parse: {exc.msg}",
        )
    return SourceFile(file or Path(path), path, source_lines, tree)


def _settle(
    findings: Iterable[Finding], sources: Sequence[SourceFile], files_scanned: int
) -> Report:
    """Apply inline pragmas, drop duplicates and sort, once per analysis.

    Pragmas come from parsed files only, so an ``SC001`` is never silenced.
    """
    pragmas = {
        source.path: parse_suppressions(source.source_lines) for source in sources
    }
    report = Report(files_scanned)
    for finding in sorted(
        set(findings), key=lambda f: (f.path, f.line, f.col, f.code, f.message)
    ):
        codes = pragmas.get(finding.path, {}).get(finding.line, frozenset())
        if codes is None or finding.code in codes:  # ``None``: bare ``ignore``
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> Report:
    """Run the syntactic rules over one module's source text."""
    if rules is None:
        from repro.statcheck.rules import all_rules

        rules = all_rules()
    parsed = parse_source(source, path)
    if isinstance(parsed, Finding):
        return _settle([parsed], [], 1)
    return _settle(_check_tree(parsed, rules), [parsed], 1)


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


def parse_paths(paths: Iterable) -> Tuple[List[SourceFile], List[Finding]]:
    """Read and parse every ``.py`` file under ``paths`` once.

    Returns the parsed modules and the ``SC001`` findings of the files that
    do not parse; unreadable files raise :class:`StatcheckError`.
    """
    sources: List[SourceFile] = []
    parse_errors: List[Finding] = []
    for file_path in discover_files(paths):
        try:
            text = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise StatcheckError(f"cannot read {file_path}: {exc}") from exc
        parsed = parse_source(text, _display_path(file_path), file_path)
        if isinstance(parsed, Finding):
            parse_errors.append(parsed)
        else:
            sources.append(parsed)
    return sources, parse_errors


def analyze_paths(
    paths: Iterable,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Report:
    """Run the rule catalogue over every ``.py`` file under ``paths``.

    ``select``/``ignore`` take rule codes (``None``: the full catalogue).
    The syntactic rules walk each tree; the whole-program rules run over
    one project model of the same trees.
    """
    # Imported here: both packages build on this module.
    from repro.statcheck.rules import resolve_selection
    from repro.statcheck.semantic.callgraph import build_call_graph
    from repro.statcheck.semantic.model import build_model

    syntactic, semantic = resolve_selection(select, ignore)
    sources, findings = parse_paths(paths)  # findings so far: the SC001s
    files_scanned = len(sources) + len(findings)
    for source in sources:
        findings.extend(_check_tree(source, syntactic))
    if semantic:
        model = build_model(sources)
        graph = build_call_graph(model)
        for rule in semantic:
            findings.extend(rule.check(model, graph))
    return _settle(findings, sources, files_scanned)
