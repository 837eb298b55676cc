"""A conservative call graph over the project model.

"Conservative" here means *precise-or-silent*: an edge is added only when
the callee resolves to a project function through evidence the AST actually
contains — a module-local name, an import binding, ``self.method`` through
the class hierarchy, ``super().method``, a classmethod/staticmethod via the
class name, or a local variable whose constructor is visible in the same
function.  Unresolvable receivers produce no edge rather than a guess, so
the taint pass gates CI without drowning it in speculative paths.  (The
one deliberate over-approximation lives in :mod:`.model`: calls inside
nested defs/lambdas are attributed to the enclosing top-level function.)

Witness paths — the ``root -> f -> g -> sink`` chains the SC5xx findings
print — come from a breadth-first search with lexicographic tie-breaking,
so the same tree always yields the same chain, byte for byte.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.statcheck.core import dotted_name, scope_walk
from repro.statcheck.semantic.model import FunctionInfo, ProjectModel

_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: ``caller`` invokes ``callee`` at ``line``."""

    caller: str
    callee: str
    line: int


class CallGraph:
    """Adjacency over function qnames, with deterministic traversal order."""

    def __init__(self, model: ProjectModel):
        self.model = model
        self.edges: List[CallEdge] = []
        self._out: Dict[str, List[CallEdge]] = {}

    def add_edge(self, caller: str, callee: str, line: int) -> None:
        edge = CallEdge(caller=caller, callee=callee, line=line)
        self.edges.append(edge)
        self._out.setdefault(caller, []).append(edge)

    def callees(self, qname: str) -> List[CallEdge]:
        """Outgoing edges, sorted for deterministic traversal."""
        return sorted(
            self._out.get(qname, ()), key=lambda e: (e.callee, e.line)
        )

    def reachable_from(
        self, roots: Iterable[str]
    ) -> Dict[str, Optional[CallEdge]]:
        """BFS over the graph; maps each reached qname to its discovery edge.

        Roots map to ``None``.  Visiting order is deterministic (sorted
        roots, sorted adjacency), so the discovery tree — and therefore
        every witness chain derived from it — is stable across runs.
        """
        parents: Dict[str, Optional[CallEdge]] = {}
        queue: List[str] = []
        for root in sorted(set(roots)):
            if root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for edge in self.callees(current):
                if edge.callee not in parents:
                    parents[edge.callee] = edge
                    queue.append(edge.callee)
        return parents

    def witness_path(
        self, parents: Dict[str, Optional[CallEdge]], target: str
    ) -> List[CallEdge]:
        """Discovery-tree path from the nearest root down to ``target``."""
        chain: List[CallEdge] = []
        current = target
        while True:
            edge = parents.get(current)
            if edge is None:
                break
            chain.append(edge)
            current = edge.caller
        chain.reverse()
        return chain


def _local_constructions(fn_node: ast.AST) -> Dict[str, str]:
    """Variable name -> constructor dotted name for ``x = ClassName(...)``
    assignments (and ``x: ClassName`` annotations) in the function's scope."""
    constructed: Dict[str, str] = {}
    for sub in scope_walk(fn_node):
        target_name: Optional[str] = None
        ctor: Optional[str] = None
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            if isinstance(sub.targets[0], ast.Name) and isinstance(
                sub.value, ast.Call
            ):
                target_name = sub.targets[0].id
                ctor = dotted_name(sub.value.func)
        elif isinstance(sub, ast.AnnAssign) and isinstance(
            sub.target, ast.Name
        ):
            target_name = sub.target.id
            ctor = dotted_name(sub.annotation)
        if target_name and ctor:
            constructed[target_name] = ctor
    return constructed


def _first_project_base(
    model: ProjectModel, class_qname: Optional[str]
) -> Optional[str]:
    if class_qname is None:
        return None
    info = model.classes.get(class_qname)
    if info is None:
        return None
    for base in info.bases:
        if base in model.classes:
            return base
    return None


def _resolve_call(
    model: ProjectModel,
    fn: FunctionInfo,
    call: ast.Call,
    constructed: Dict[str, str],
) -> Optional[str]:
    func = call.func
    # super().method() -> nearest project base's method
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    ):
        base = _first_project_base(model, fn.cls)
        if base is not None:
            return model.resolve_method(base, func.attr)
        return None
    dotted = dotted_name(func)
    if not dotted:
        return None
    head, _, rest = dotted.partition(".")
    # self.method() / cls.method() through the hierarchy
    if head in ("self", "cls") and fn.cls is not None:
        if rest and "." not in rest:
            return model.resolve_method(fn.cls, rest)
        return None
    # receiver constructed locally: x = ClassName(...); x.method()
    if rest and "." not in rest and head in constructed:
        receiver_cls = model.resolve(fn.module, constructed[head])
        if receiver_cls in model.classes:
            return model.resolve_method(receiver_cls, rest)
        return None
    target = model.resolve(fn.module, dotted)
    if target is None:
        return None
    if target in model.classes:  # constructor call
        return model.resolve_method(target, "__init__") or target
    if target in model.functions:
        return target
    return None


def function_calls(
    model: ProjectModel, fn: FunctionInfo
) -> List[Tuple[ast.Call, Optional[str]]]:
    """Every call in ``fn``'s body (nested scopes included) with its
    resolved project callee, or ``None`` when unresolvable."""
    constructed = _local_constructions(fn.node)
    calls: List[Tuple[ast.Call, Optional[str]]] = []
    # Walk the entire body including nested defs: their behaviour is
    # attributed to the enclosing function (see module docstring).
    for sub in ast.walk(fn.node):
        if isinstance(sub, ast.Call):
            calls.append((sub, _resolve_call(model, fn, sub, constructed)))
    return calls


def build_call_graph(model: ProjectModel) -> CallGraph:
    """Resolve every call site in every project function into edges."""
    graph = CallGraph(model)
    for qname in sorted(model.functions):
        fn = model.functions[qname]
        for call, callee in function_calls(model, fn):
            if callee is not None and callee != qname:
                graph.add_edge(qname, callee, getattr(call, "lineno", 0))
    return graph
