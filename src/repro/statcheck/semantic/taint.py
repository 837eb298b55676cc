"""Determinism taint: which functions can poison the deterministic exports.

The serving stack's trust chain (chaos replays compared byte-for-byte,
span exports diffed across backends, bench reports gated in CI) rests on a
set of *deterministic roots* — code whose output must be a pure function
of its seeded inputs.  This pass finds every project function reachable
from those roots through the call graph, then reports each nondeterminism
*sink* inside that cone:

- draws from the process-global RNG (``random.random()``, ``np.random.*``)
- wall-clock reads (``time.time``, ``datetime.now``, ...) — note
  ``perf_counter`` is *not* a sink: measured durations are allowed, they
  are stripped by the deterministic exporters
- ``id()`` (address-dependent) and iteration over an unordered set
- environment lookups (``os.environ[...]``, ``os.getenv``)
- entropy sources (``uuid.uuid4``, ``os.urandom``, ``secrets.*``)

Roots come from two channels: the built-in patterns below (the repo's
known deterministic export paths) and an explicit ``# statcheck:
deterministic`` pragma on a ``def`` line, which is also how fixture
packages and downstream code opt functions in.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.statcheck.core import dotted_name, normalized_call
from repro.statcheck.semantic.callgraph import CallEdge, CallGraph
from repro.statcheck.semantic.model import FunctionInfo, ProjectModel

#: Qualified-name patterns (fnmatch) of the repo's deterministic roots:
#: fault-plan decisions, span/bench exporters, work counters, statcheck's
#: own report.  Fixture/downstream code uses the pragma.
DEFAULT_ROOT_PATTERNS: Tuple[str, ...] = (
    "repro.serving.faults.FaultPlan.*",
    "repro.serving.faults.FaultRule.*",
    "repro.obs.export.span_to_dict",
    "repro.obs.export.to_jsonl",
    "repro.obs.export.write_jsonl",
    "repro.obs.export.to_chrome_trace",
    "repro.obs.export.write_chrome_trace",
    "repro.obs.bench.to_json",
    "repro.obs.counters.record_work",
    "repro.statcheck.core.Report.render",
)

#: Exact dotted calls that read a non-monotonic wall clock or OS entropy.
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
}
_CLOCK_SUFFIXES = (
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)
_ENTROPY_CALLS = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}
_ENTROPY_PREFIXES = ("secrets.",)

# Global-RNG draw names, shared with the syntactic SC303 rule.
from repro.statcheck.rules.safety import _LEGACY_DRAWS  # noqa: E402

_RNG_EXTRA = {"random", "getrandbits", "randrange", "randbytes"}


@dataclass(frozen=True)
class Sink:
    """One nondeterminism source inside one function."""

    qname: str      #: function holding the sink
    line: int
    col: int
    kind: str       #: short category, e.g. ``unseeded-rng``
    detail: str     #: human fragment, e.g. ``random.random()``


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _call_sink(call: ast.Call) -> Optional[Tuple[str, str]]:
    """(kind, detail) when the call reads a nondeterminism source."""
    fn = normalized_call(call.func)
    if not fn:
        return None
    if fn.startswith(("np.random.", "random.")):
        tail = fn.rsplit(".", 1)[-1]
        if tail in _LEGACY_DRAWS or tail in _RNG_EXTRA:
            return ("unseeded-rng", f"{fn}()")
    if fn in _CLOCK_CALLS or fn.endswith(_CLOCK_SUFFIXES):
        return ("wall-clock", f"{fn}()")
    if fn in _ENTROPY_CALLS or fn.startswith(_ENTROPY_PREFIXES):
        return ("entropy", f"{fn}()")
    if fn == "id" and len(call.args) == 1:
        return ("address-order", "id()")
    if fn in ("os.getenv", "os.environ.get"):
        return ("env-lookup", f"{fn}()")
    return None


def function_sinks(fn: FunctionInfo) -> List[Sink]:
    """All nondeterminism sinks lexically inside ``fn`` (nested scopes
    included — attribution matches the call graph's)."""
    sinks: List[Sink] = []

    def add(node: ast.AST, kind: str, detail: str) -> None:
        sinks.append(
            Sink(
                qname=fn.qname,
                line=getattr(node, "lineno", fn.lineno),
                col=getattr(node, "col_offset", 0) + 1,
                kind=kind,
                detail=detail,
            )
        )

    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            found = _call_sink(node)
            if found is not None:
                add(node, *found)
        elif isinstance(node, ast.Subscript):
            if dotted_name(node.value) == "os.environ":
                add(node, "env-lookup", "os.environ[...]")
        elif isinstance(node, ast.For):
            if _is_set_expr(node.iter):
                add(node.iter, "set-iteration", "iteration over an unordered set")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter):
                    add(gen.iter, "set-iteration", "iteration over an unordered set")
    return sorted(sinks, key=lambda s: (s.line, s.col, s.kind))


def deterministic_roots(
    model: ProjectModel, patterns: Tuple[str, ...] = DEFAULT_ROOT_PATTERNS
) -> List[str]:
    """Root qnames: pragma-marked functions plus built-in pattern matches."""
    roots = []
    for qname, fn in sorted(model.functions.items()):
        if fn.is_deterministic_root or any(
            fnmatch.fnmatchcase(qname, pattern) for pattern in patterns
        ):
            roots.append(qname)
    return roots


@dataclass(frozen=True)
class TaintFinding:
    """A sink reachable from a deterministic root, with its witness chain."""

    sink: Sink
    root: str
    chain: Tuple[CallEdge, ...]  #: root -> ... -> sink-holding function

    def witness(self, model: ProjectModel) -> str:
        """Render ``root -> callee (path:line) -> ... -> sink``."""
        parts = [self.root]
        for edge in self.chain:
            module = model.functions[edge.caller].module
            path = model.modules[module].path
            parts.append(f"{edge.callee} (called at {path}:{edge.line})")
        return " -> ".join(parts)


def taint_findings(
    model: ProjectModel,
    graph: CallGraph,
    patterns: Tuple[str, ...] = DEFAULT_ROOT_PATTERNS,
) -> Iterator[TaintFinding]:
    """Yield every root-reachable sink with a deterministic witness chain."""
    roots = deterministic_roots(model, patterns)
    if not roots:
        return
    parents: Dict[str, Optional[CallEdge]] = graph.reachable_from(roots)
    for qname in sorted(parents):
        fn = model.functions.get(qname)
        if fn is None:
            continue
        sinks = function_sinks(fn)
        if not sinks:
            continue
        chain = tuple(graph.witness_path(parents, qname))
        root = chain[0].caller if chain else qname
        for sink in sinks:
            yield TaintFinding(sink=sink, root=root, chain=chain)
