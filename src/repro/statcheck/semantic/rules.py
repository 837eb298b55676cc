"""The semantic rule catalogue: SC5xx / SC6xx / SC7xx / SC8xx.

Unlike the syntactic rules (which see one AST at a time through
``visit_<NodeType>`` dispatch), a :class:`SemanticRule` sees the whole
:class:`~repro.statcheck.semantic.model.ProjectModel` and call graph and
returns findings directly.  Everything downstream — inline suppression
pragmas, baseline fingerprints, reporters — is shared with the syntactic
pass, so ``# statcheck: ignore[SC501]`` and the committed baseline work
unchanged.

Families:

- **SC501 determinism-taint** — a function reachable from a deterministic
  export root (fault-plan decisions, span/bench exporters, work counters,
  or any ``# statcheck: deterministic`` def) contains a nondeterminism
  sink; the finding message carries the root-to-sink witness chain.
- **SC601/602/603 process-boundary escape** — values flowing into
  ``run_chunks_in_processes``, process-pool ``submit``/``map``, or
  ``ServiceRequest``/``ServiceResponse`` fields must be pickle-safe,
  checked along local dataflow rather than only at the literal call site.
- **SC701/702 shared-state concurrency hazards** — ``Service`` subclasses
  write uninitialized instance attributes on their hot path (executors
  share one instance across thread workers), or thread-reachable code
  mutates module-level state without a lock.
- **SC801 async hygiene** — a blocking call (``time.sleep``, blocking
  file/socket/subprocess I/O, ``Future.result()`` without a timeout) is
  transitively reachable from an ``async def``; one such call parks the
  event loop and every in-flight session behind it.  The finding carries
  the async-root-to-sink witness chain.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.statcheck.core import (
    Finding,
    Rule,
    Severity,
    dotted_name,
    identifiers,
    normalized_call,
    parse_suppressions,
    scope_walk,
)
from repro.statcheck.semantic.callgraph import (
    CallGraph,
    build_call_graph,
    function_calls,
)
from repro.statcheck.semantic.model import (
    ClassInfo,
    FunctionInfo,
    ProjectModel,
    build_model,
)
from repro.statcheck.semantic.taint import DEFAULT_ROOT_PATTERNS, taint_findings


class SemanticRule(Rule):
    """Base class for whole-program rules.

    Subclasses implement :meth:`check`; :meth:`finding` builds
    :class:`~repro.statcheck.core.Finding` objects with the source-line
    text the baseline fingerprints need.
    """

    def check(
        self, model: ProjectModel, graph: CallGraph
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        model: ProjectModel,
        module: str,
        line: int,
        col: int,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Finding:
        info = model.modules[module]
        source = ""
        if 1 <= line <= len(info.source_lines):
            source = info.source_lines[line - 1].strip()
        return Finding(
            path=info.path,
            line=line,
            col=col,
            code=self.code,
            severity=severity if severity is not None else self.severity,
            message=message,
            source=source,
        )


# ---------------------------------------------------------------------------
# SC5xx — determinism taint
# ---------------------------------------------------------------------------


class DeterminismTaint(SemanticRule):
    """SC501: a deterministic export path reaches a nondeterminism sink."""

    code = "SC501"
    name = "determinism-taint"
    severity = Severity.ERROR
    summary = (
        "function reachable from a deterministic export root reads an "
        "unseeded RNG, wall clock, id()/set order, or the environment"
    )
    rationale = (
        "Chaos replays, span exports, and bench reports are gated by "
        "byte-identical comparison; any nondeterminism transitively "
        "reachable from those export paths breaks the replay contract in "
        "ways no single-file rule can see.  The finding message carries "
        "the call-graph witness chain from the root to the sink.  Mark "
        "additional roots with `# statcheck: deterministic` on the def."
    )

    def check(self, model, graph):
        for taint in taint_findings(model, graph, DEFAULT_ROOT_PATTERNS):
            sink = taint.sink
            fn = model.functions[sink.qname]
            message = (
                f"nondeterministic {sink.kind} ({sink.detail}) in "
                f"{sink.qname} is reachable from deterministic export "
                f"root {taint.root}; witness: {taint.witness(model)}"
            )
            yield self.finding(model, fn.module, sink.line, sink.col, message)


# ---------------------------------------------------------------------------
# SC6xx — process-boundary escape analysis
# ---------------------------------------------------------------------------

_PROCESS_ENTRY_TAILS = {"run_chunks_in_processes"}
_POOL_METHODS = {
    "map", "imap", "imap_unordered", "starmap", "map_async",
    "apply", "apply_async", "submit",
}
_PROCESS_POOL_CTORS = {"Pool", "ProcessPoolExecutor", "ProcessBackend"}
_LOCK_CTOR_TAILS = {"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"}


def _local_assignments(fn_node: ast.AST) -> Dict[str, List[ast.AST]]:
    """name -> value expressions assigned to it in the function's scope."""
    assigns: Dict[str, List[ast.AST]] = {}
    for sub in scope_walk(fn_node):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    assigns.setdefault(target.id, []).append(sub.value)
        elif isinstance(sub, ast.AnnAssign) and isinstance(
            sub.target, ast.Name
        ):
            if sub.value is not None:
                assigns.setdefault(sub.target.id, []).append(sub.value)
    return assigns


def _nested_defs(fn_node: ast.AST) -> Dict[str, ast.AST]:
    """Functions and classes defined *inside* this function's scope."""
    nested: Dict[str, ast.AST] = {}
    for sub in scope_walk(fn_node):
        if sub is fn_node:
            continue
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nested[sub.name] = sub
    return nested


def _is_generator_def(node: ast.AST) -> bool:
    return any(
        isinstance(sub, (ast.Yield, ast.YieldFrom)) for sub in scope_walk(node)
    )


def _classify_unpicklable(
    value: ast.AST,
    assigns: Dict[str, List[ast.AST]],
    nested: Dict[str, ast.AST],
    _depth: int = 0,
) -> Optional[str]:
    """Human label when ``value`` evaluates to something pickle-hostile."""
    if _depth > 4:
        return None
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(value, ast.Name):
        target = nested.get(value.id)
        if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kind = "generator function" if _is_generator_def(target) else "function"
            return f"locally-defined {kind} {value.id!r}"
        if isinstance(target, ast.ClassDef):
            return f"locally-defined class {value.id!r}"
        bound = assigns.get(value.id, [])
        if len(bound) == 1:  # single reaching definition: chase it
            return _classify_unpicklable(bound[0], assigns, nested, _depth + 1)
        return None
    if isinstance(value, ast.Call):
        callee = normalized_call(value.func)
        tail = callee.rsplit(".", 1)[-1]
        if tail == "open":
            return "an open file handle"
        target = nested.get(tail) if isinstance(value.func, ast.Name) else None
        if isinstance(target, ast.ClassDef):
            return f"an instance of locally-defined class {tail!r}"
        if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_generator_def(target):
                return f"a generator from locally-defined {tail!r}"
    return None


def _closure_captures(
    fn_def: ast.AST, assigns: Dict[str, List[ast.AST]]
) -> List[Tuple[str, str]]:
    """(name, what) for enclosing-scope locks/handles the nested def uses."""
    from repro.statcheck.rules.safety import _bound_names

    bound = _bound_names(fn_def)
    captures: List[Tuple[str, str]] = []
    for sub in scope_walk(fn_def):
        if not isinstance(sub, ast.Name) or sub.id in bound:
            continue
        for value in assigns.get(sub.id, []):
            if not isinstance(value, ast.Call):
                continue
            tail = normalized_call(value.func).rsplit(".", 1)[-1]
            if tail in _LOCK_CTOR_TAILS:
                captures.append((sub.id, "a lock"))
            elif tail == "open":
                captures.append((sub.id, "an open file handle"))
    return sorted(set(captures))


def _is_process_receiver(
    receiver: ast.AST, assigns: Dict[str, List[ast.AST]]
) -> bool:
    """Best-effort: does this ``.submit``/``.map`` receiver cross processes?"""

    def ctor_is_process(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        name = normalized_call(value.func)
        tail = name.rsplit(".", 1)[-1]
        if "Thread" in name:
            return False
        if tail in _PROCESS_POOL_CTORS:
            return True
        if tail == "get_backend" and value.args:
            arg = value.args[0]
            return (
                isinstance(arg, ast.Constant) and arg.value == "process"
            )
        return False

    if ctor_is_process(receiver):
        return True
    if any("process" in ident for ident in identifiers(receiver)):
        return True
    if isinstance(receiver, ast.Name):
        return any(ctor_is_process(v) for v in assigns.get(receiver.id, []))
    return False


def _boundary_values(
    fn: FunctionInfo,
) -> Iterator[Tuple[ast.AST, str, Dict[str, List[ast.AST]], Dict[str, ast.AST]]]:
    """Yield (value-expr, boundary-label, assigns, nested) for every value
    that flows into a process boundary inside ``fn``."""
    assigns = _local_assignments(fn.node)
    nested = _nested_defs(fn.node)
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        callee = normalized_call(node.func)
        tail = callee.rsplit(".", 1)[-1]
        if tail in _PROCESS_ENTRY_TAILS:
            label = f"{tail}()"
        elif (
            tail in _POOL_METHODS
            and isinstance(node.func, ast.Attribute)
            and _is_process_receiver(node.func.value, assigns)
        ):
            label = f"process-backend {tail}()"
        else:
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            yield arg, label, assigns, nested


class ProcessBoundaryEscape(SemanticRule):
    """SC601: an unpicklable value flows into a process boundary."""

    code = "SC601"
    name = "unpicklable-process-arg"
    severity = Severity.ERROR
    summary = (
        "lambda/nested function/generator/local class flows into "
        "run_chunks_in_processes or a process-pool dispatch"
    )
    rationale = (
        "Process pools pickle what crosses the boundary; lambdas, nested "
        "functions, generators, and instances of locally-defined classes "
        "all raise PicklingError the first time the code leaves the fork "
        "fast-path.  Unlike the syntactic SC302 this follows the local "
        "dataflow, so `f = lambda c: ...; run_chunks_in_processes(f, ...)` "
        "is caught at the boundary, not just literal lambda arguments."
    )

    def check(self, model, graph):
        for qname in sorted(model.functions):
            fn = model.functions[qname]
            for value, label, assigns, nested in _boundary_values(fn):
                what = _classify_unpicklable(value, assigns, nested)
                if what is None:
                    continue
                yield self.finding(
                    model,
                    fn.module,
                    getattr(value, "lineno", fn.lineno),
                    getattr(value, "col_offset", 0) + 1,
                    f"{what} flows into {label} in {qname}; it cannot be "
                    "pickled across the process boundary — use a "
                    "module-level function / materialized values",
                )


class ClosureOverResource(SemanticRule):
    """SC602: a boundary-crossing callable closes over a lock/file handle."""

    code = "SC602"
    name = "closure-over-resource"
    severity = Severity.ERROR
    summary = (
        "callable sent across a process boundary captures a lock or open "
        "file handle from the enclosing scope"
    )
    rationale = (
        "Even when the callable itself would pickle (or rides the fork "
        "fast-path), a captured lock or file handle never transfers "
        "usefully: locks are process-local (the child's copy guards "
        "nothing) and file handles share offsets with the parent.  Pass "
        "paths/plain data and open or synchronize inside the worker."
    )

    def check(self, model, graph):
        for qname in sorted(model.functions):
            fn = model.functions[qname]
            for value, label, assigns, nested in _boundary_values(fn):
                target: Optional[ast.AST] = None
                if isinstance(value, ast.Name) and value.id in nested:
                    target = nested[value.id]
                elif isinstance(value, ast.Lambda):
                    target = value
                if target is None or not isinstance(
                    target, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                for name, what in _closure_captures(target, assigns):
                    yield self.finding(
                        model,
                        fn.module,
                        getattr(value, "lineno", fn.lineno),
                        getattr(value, "col_offset", 0) + 1,
                        f"callable passed to {label} in {qname} closes over "
                        f"{what} ({name!r}); locks and handles do not cross "
                        "process boundaries — open/synchronize inside the "
                        "worker instead",
                    )


_ENVELOPE_CTORS = {"ServiceRequest", "ServiceResponse"}


class UnpicklableEnvelopeField(SemanticRule):
    """SC603: a pickle-hostile value is stored in a service envelope."""

    code = "SC603"
    name = "unpicklable-envelope-field"
    severity = Severity.ERROR
    summary = (
        "ServiceRequest/ServiceResponse field holds a lambda, generator, "
        "open handle, or locally-defined class instance"
    )
    rationale = (
        "Envelopes are the one structure guaranteed to cross execution "
        "backends: the process backend pickles them through the result "
        "pipe.  A field that only pickles on the thread backend makes the "
        "backends observably different — exactly the equivalence the "
        "serving tests (and the paper's backend comparisons) depend on."
    )

    def check(self, model, graph):
        for qname in sorted(model.functions):
            fn = model.functions[qname]
            assigns = _local_assignments(fn.node)
            nested = _nested_defs(fn.node)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = normalized_call(node.func)
                if callee.rsplit(".", 1)[-1] not in _ENVELOPE_CTORS:
                    continue
                values = [(None, arg) for arg in node.args] + [
                    (kw.arg, kw.value) for kw in node.keywords
                ]
                for field_name, value in values:
                    what = _classify_unpicklable(value, assigns, nested)
                    if what is None:
                        continue
                    where = (
                        f"field {field_name!r}" if field_name else "a field"
                    )
                    yield self.finding(
                        model,
                        fn.module,
                        getattr(value, "lineno", fn.lineno),
                        getattr(value, "col_offset", 0) + 1,
                        f"{callee.rsplit('.', 1)[-1]} {where} in {qname} "
                        f"holds {what}; envelopes must pickle identically "
                        "on every execution backend",
                    )


# ---------------------------------------------------------------------------
# SC7xx — shared-state concurrency hazards
# ---------------------------------------------------------------------------

#: Methods executors invoke concurrently on a shared Service instance.
_HOT_METHODS = ("process", "invoke", "__call__")
#: Setup methods that run before concurrent dispatch begins.
_SETUP_METHODS = ("__init__", "__post_init__", "warmup")

SERVICE_BASES = ("Service",)
HIERARCHY_ROOTS = ("Service", "Kernel", "Rule")


def _initialized_attrs(model: ProjectModel, cls: ClassInfo) -> Set[str]:
    """Attributes assigned in class bodies / setup methods anywhere up the
    project ancestry (``self.x = ...``, annotated class attrs, __slots__)."""
    attrs: Set[str] = set()
    for qname in model.mro_candidates(cls.qname):
        info = model.classes[qname]
        for item in info.node.body:
            if isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        attrs.add(target.id)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                attrs.add(item.target.id)
        for setup in _SETUP_METHODS:
            method_qname = info.methods.get(setup)
            if method_qname is None:
                continue
            method = model.functions[method_qname]
            for sub in ast.walk(method.node):
                if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        sub.targets
                        if isinstance(sub, ast.Assign)
                        else [sub.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)
    return attrs


def _under_lock(node: ast.AST, ancestors: Sequence[ast.AST]) -> bool:
    """Is this statement inside a ``with <something lock-ish>:`` block?"""
    for ancestor in ancestors:
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if any("lock" in ident for ident in identifiers(item.context_expr)):
                    return True
    return False


def _walk_with_ancestors(
    root: ast.AST,
) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    stack: List[Tuple[ast.AST, Tuple[ast.AST, ...]]] = [(root, ())]
    while stack:
        node, ancestors = stack.pop()
        yield node, ancestors
        for child in ast.iter_child_nodes(node):
            stack.append((child, ancestors + (node,)))


def _hot_method_closure(
    model: ProjectModel, graph: CallGraph, cls: ClassInfo
) -> List[str]:
    """Hot methods of ``cls`` plus same-class methods they transitively
    call through ``self`` (resolved edges within the class)."""
    own_methods = set(cls.methods.values())
    queue = [
        cls.methods[m] for m in _HOT_METHODS if m in cls.methods
    ]
    closure: Set[str] = set()
    while queue:
        current = queue.pop(0)
        if current in closure:
            continue
        closure.add(current)
        for edge in graph.callees(current):
            if edge.callee in own_methods and edge.callee not in closure:
                tail = edge.callee.rsplit(".", 1)[-1]
                if tail not in _SETUP_METHODS:
                    queue.append(edge.callee)
    return sorted(closure)


class ServiceSharedStateWrite(SemanticRule):
    """SC701: hot-path write to an uninitialized Service instance attribute."""

    code = "SC701"
    name = "service-shared-state-write"
    severity = Severity.ERROR
    summary = (
        "Service subclass writes a self attribute on its hot path that "
        "__init__/warmup never initialize (and no lock guards)"
    )
    rationale = (
        "Executors share ONE Service instance across thread workers: an "
        "attribute materialized lazily inside invoke()/process() is a "
        "write-write race between concurrent queries, and under the "
        "process backend the write silently vanishes in the forked child. "
        "Initialize state in __init__ (or warmup, which runs before "
        "dispatch), guard genuine shared mutation with a lock, or return "
        "the value instead of stashing it."
    )

    def check(self, model, graph):
        for cls in model.subclasses_of(*SERVICE_BASES):
            initialized = _initialized_attrs(model, cls)
            for method_qname in _hot_method_closure(model, graph, cls):
                method = model.functions[method_qname]
                for node, ancestors in _walk_with_ancestors(method.node):
                    if not isinstance(node, (ast.Assign, ast.AugAssign)):
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        if target.attr in initialized:
                            continue
                        if _under_lock(node, ancestors):
                            continue
                        yield self.finding(
                            model,
                            method.module,
                            node.lineno,
                            node.col_offset + 1,
                            f"{cls.name}.{method.name}() writes "
                            f"self.{target.attr}, which __init__/warmup "
                            "never initialize; executors share one "
                            "instance across thread workers — initialize "
                            "it up front or guard the write with a lock",
                        )


_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "appendleft",
}
_MUTABLE_CTORS = {"list", "dict", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
_THREAD_ENTRY_TAILS = {"map_chunks"}


def _module_level_bindings(
    model: ProjectModel, module: str
) -> Tuple[Set[str], Set[str]]:
    """(all module-level assigned names, the recognizably-mutable subset)."""
    info = model.modules[module]
    all_names: Set[str] = set()
    mutable: Set[str] = set()
    for node in info.tree.body:
        values: List[Tuple[str, ast.AST]] = []
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    values.append((target.id, node.value))
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if node.value is not None:
                values.append((node.target.id, node.value))
        for name, value in values:
            all_names.add(name)
            if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
                mutable.add(name)
            elif isinstance(value, ast.Call):
                tail = normalized_call(value.func).rsplit(".", 1)[-1]
                if tail in _MUTABLE_CTORS:
                    mutable.add(name)
    return all_names, mutable


def _is_thread_local_global(model: ProjectModel, module: str, name: str) -> bool:
    """Is the module-level ``name`` a ``threading.local`` (subclass) instance?
    Thread-local state is the sanctioned pattern, not a hazard."""
    info = model.modules[module]
    for node in info.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        ctor = dotted_name(node.value.func)
        if ctor.endswith("local"):
            return True
        resolved = model.resolve(module, ctor)
        if resolved in model.classes:
            bases = model.classes[resolved].bases
            chain = model.mro_candidates(resolved)
            all_bases = set(bases)
            for qname in chain:
                all_bases.update(model.classes[qname].bases)
            if any(base.endswith("local") for base in all_bases):
                return True
    return False


def _thread_entry_points(model: ProjectModel, graph: CallGraph) -> List[str]:
    """Functions that run on executor worker threads: Service hot methods
    plus project callables handed by name to the thread-pool entrypoints."""
    entries: Set[str] = set()
    for cls in model.subclasses_of(*SERVICE_BASES):
        for method in _HOT_METHODS:
            qname = cls.methods.get(method)
            if qname is not None:
                entries.add(qname)
    for qname in sorted(model.functions):
        fn = model.functions[qname]
        for call, _resolved in function_calls(model, fn):
            tail = normalized_call(call.func).rsplit(".", 1)[-1]
            if tail not in _THREAD_ENTRY_TAILS and tail != "submit":
                continue
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                if isinstance(arg, ast.Name):
                    target = model.resolve(fn.module, arg.id)
                    if target in model.functions:
                        entries.add(target)
    return sorted(entries)


class ThreadSharedModuleState(SemanticRule):
    """SC702: thread-reachable code mutates module-level state lock-free."""

    code = "SC702"
    name = "thread-shared-module-state"
    severity = Severity.WARNING
    summary = (
        "code reachable from thread-backend callables mutates module-level "
        "state without a lock"
    )
    rationale = (
        "Service hot methods and thread-pool callables run concurrently; "
        "a module-level global they rebind or a module-level container "
        "they mutate is shared across every worker thread (and silently "
        "diverges across forked processes).  Use threading.local for "
        "per-thread state, a lock for genuinely shared state, or pass the "
        "value through the call instead."
    )

    def check(self, model, graph):
        entries = _thread_entry_points(model, graph)
        if not entries:
            return
        reachable = graph.reachable_from(entries)
        for qname in sorted(reachable):
            fn = model.functions.get(qname)
            if fn is None:
                continue
            module_names, mutable_globals = _module_level_bindings(
                model, fn.module
            )
            declared_global: Set[str] = set()
            for sub in ast.walk(fn.node):
                if isinstance(sub, ast.Global):
                    declared_global.update(sub.names)
            from repro.statcheck.rules.safety import _bound_names

            bound = _bound_names(fn.node)

            def is_module_object(name: str) -> bool:
                return name in module_names and name not in bound

            for node, ancestors in _walk_with_ancestors(fn.node):
                hit: Optional[Tuple[str, str]] = None  # (name, verb)
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in declared_global
                        ):
                            hit = (target.id, "rebinds")
                        elif (
                            isinstance(target, (ast.Subscript, ast.Attribute))
                            and isinstance(target.value, ast.Name)
                            and target.value.id != "self"
                            and (
                                target.value.id in mutable_globals
                                or is_module_object(target.value.id)
                            )
                            and target.value.id not in bound
                        ):
                            hit = (target.value.id, "mutates")
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in mutable_globals
                    and node.func.value.id not in bound
                ):
                    hit = (node.func.value.id, "mutates")
                if hit is None:
                    continue
                name, verb = hit
                if _is_thread_local_global(model, fn.module, name):
                    continue
                if _under_lock(node, ancestors):
                    continue
                yield self.finding(
                    model,
                    fn.module,
                    node.lineno,
                    node.col_offset + 1,
                    f"{qname} {verb} module-level state {name!r} and is "
                    "reachable from thread-backend callables; guard it "
                    "with a lock, use threading.local, or thread the "
                    "value through the call",
                )


# ---------------------------------------------------------------------------
# SC8xx — async hygiene
# ---------------------------------------------------------------------------

#: Dotted callee names that block the calling thread outright.
_BLOCKING_CALL_NAMES = {
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.getoutput",
    "urllib.request.urlopen",
    "socket.create_connection",
    "requests.get",
    "requests.post",
    "requests.put",
    "requests.delete",
    "requests.head",
    "requests.request",
}
#: Socket methods that park the thread until the peer acts; only flagged
#: when the receiver's identifiers look socket-ish (``sock``/``conn``).
_BLOCKING_SOCKET_METHODS = {"recv", "recvfrom", "recv_into", "accept", "sendall"}


def _blocking_sink(
    model: ProjectModel, module: str, node: ast.Call
) -> Optional[str]:
    """Human label when this call blocks the thread it runs on."""
    callee = normalized_call(node.func)
    if callee in _BLOCKING_CALL_NAMES:
        return f"{callee}()"
    resolved = model.resolve(module, callee)
    if resolved is None and "." not in callee:
        # ``from time import sleep`` style bare names: resolve() only covers
        # project files, so chase the import binding by hand.
        info = model.modules.get(module)
        target = info.imports.get(callee) if info is not None else None
        if target in _BLOCKING_CALL_NAMES:
            return f"{target}()"
    if callee == "open":
        return "open() file I/O"
    tail = callee.rsplit(".", 1)[-1]
    if (
        tail == "result"
        and isinstance(node.func, ast.Attribute)
        and not node.args
        and not any(kw.arg == "timeout" for kw in node.keywords)
    ):
        return "Future.result() with no timeout"
    if (
        tail in _BLOCKING_SOCKET_METHODS
        and isinstance(node.func, ast.Attribute)
        and any(
            "sock" in ident or "conn" in ident
            for ident in identifiers(node.func.value)
        )
    ):
        return f"socket .{tail}()"
    return None


class AsyncBlockingCall(SemanticRule):
    """SC801: a blocking call is reachable from an ``async def``."""

    code = "SC801"
    name = "async-blocking-call"
    severity = Severity.WARNING
    summary = (
        "time.sleep, blocking file/socket/subprocess I/O, or "
        "Future.result() without a timeout is reachable from an async def"
    )
    rationale = (
        "The streaming gateway multiplexes every in-flight session over "
        "one event loop; a single blocking call anywhere in the awaited "
        "call graph stalls all of them for its full duration.  Await the "
        "async equivalent (asyncio.sleep, loop.sock_recv), dispatch the "
        "blocking work through run_in_executor (handing the callable over "
        "by reference is fine — only *calls* create reachability), or "
        "bound Future.result() with a timeout.  The finding message "
        "carries the async-root-to-sink witness chain."
    )

    def check(self, model, graph):
        roots = [
            qname
            for qname, fn in sorted(model.functions.items())
            if isinstance(fn.node, ast.AsyncFunctionDef)
        ]
        if not roots:
            return
        parents = graph.reachable_from(roots)
        for qname in sorted(parents):
            fn = model.functions.get(qname)
            if fn is None:
                continue
            chain = graph.witness_path(parents, qname)
            root = chain[0].caller if chain else qname
            witness_parts = [root]
            for edge in chain:
                edge_module = model.functions[edge.caller].module
                path = model.modules[edge_module].path
                witness_parts.append(
                    f"{edge.callee} (called at {path}:{edge.line})"
                )
            witness = " -> ".join(witness_parts)
            for node in scope_walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                what = _blocking_sink(model, fn.module, node)
                if what is None:
                    continue
                yield self.finding(
                    model,
                    fn.module,
                    getattr(node, "lineno", fn.lineno),
                    getattr(node, "col_offset", 0) + 1,
                    f"blocking {what} in {qname} is reachable from async "
                    f"def {root}; it parks the event loop for its full "
                    "duration — await an async equivalent or dispatch via "
                    f"run_in_executor; witness: {witness}",
                )


# ---------------------------------------------------------------------------
# Registry and entry point
# ---------------------------------------------------------------------------

SEMANTIC_RULE_CLASSES: Tuple[Type[SemanticRule], ...] = (
    DeterminismTaint,
    ProcessBoundaryEscape,
    ClosureOverResource,
    UnpicklableEnvelopeField,
    ServiceSharedStateWrite,
    ThreadSharedModuleState,
    AsyncBlockingCall,
)

SEMANTIC_RULE_CODES: Tuple[str, ...] = tuple(
    cls.code for cls in SEMANTIC_RULE_CLASSES
)


def all_semantic_rules() -> List[SemanticRule]:
    """Fresh instances of the semantic catalogue, code order."""
    return [cls() for cls in SEMANTIC_RULE_CLASSES]


class SemanticReport:
    """Outcome of one whole-program pass (plus the model for reuse)."""

    def __init__(self, model, graph, findings, suppressed):
        self.model = model
        self.graph = graph
        self.findings: List[Finding] = findings
        self.suppressed: List[Finding] = suppressed


def analyze_semantic(
    paths,
    rules: Optional[Sequence[SemanticRule]] = None,
    model: Optional[ProjectModel] = None,
    graph: Optional[CallGraph] = None,
) -> SemanticReport:
    """Run the semantic catalogue over the files under ``paths``.

    Inline ``# statcheck: ignore[...]`` pragmas apply exactly as in the
    syntactic pass; findings come back sorted and de-duplicated so reports
    are byte-identical across runs.
    """
    if model is None:
        model = build_model(paths)
    if graph is None:
        graph = build_call_graph(model)
    if rules is None:
        rules = all_semantic_rules()
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check(model, graph))

    pragmas_by_path = {
        info.path: parse_suppressions(info.source_lines)
        for info in model.modules.values()
    }
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    seen = set()
    for finding in sorted(
        raw, key=lambda f: (f.path, f.line, f.col, f.code, f.message)
    ):
        key = (finding.path, finding.line, finding.col, finding.code, finding.message)
        if key in seen:
            continue
        seen.add(key)
        pragmas = pragmas_by_path.get(finding.path, {})
        codes = pragmas.get(finding.line, frozenset())
        if codes is None or finding.code in codes:
            suppressed.append(finding)
        else:
            findings.append(finding)
    return SemanticReport(
        model=model, graph=graph, findings=findings, suppressed=suppressed
    )
