"""One value per option: every option of the library is set by some caller.

An AST census of ``src/repro``.  A defaulted parameter of a public
function, method or constructor, and a ``@dataclass`` field with a default
(``init=False`` fields are state, not options), must be passed by some call
in ``src/`` or ``benchmarks/``.  Tests and examples do not count: a value only they set
is a constant.  Calls match by name (``x.run(...)`` counts for every
``run``), ``cls(...)`` inside a class body is a call of that class, a
positional argument counts for the parameter in its place, and calls
through ``*args`` or ``**kwargs`` are skipped.

``ALLOWED`` exempts what the rule does not cover, each with its reason.
Only four kinds are allowed: a test seam (lets a test substitute a fake),
a CLI entry point, an argument the frozen ``benchmarks/perf`` harness
passes, and an option a CLI flag forwards.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLERS = (ROOT / "src", ROOT / "benchmarks")
HARNESS_DIR = ROOT / "benchmarks" / "perf"

SEAM, ENTRY, HARNESS, FLAG = (
    "test seam", "CLI entry point", "frozen-harness argument", "CLI-forwarded option"
)

#: ``(module, qualified name, parameter)`` -> (kind, reason).
ALLOWED = {
    ("repro/cli.py", "main", "argv"): (
        ENTRY, "tests run the CLI in-process with their own argument lists"),
    ("repro/obs/trace.py", "Tracer.resume", "clock"): (
        SEAM, "a resumed tracer takes the fake clock its parent's tests use"),
    ("repro/serving/cluster/fleet.py", "build_cluster", "fault_plan"): (
        SEAM, "the conformance suite substitutes fault-injecting shards"),
    ("repro/serving/executor.py", "PlanExecutor.run_all", "workers"): (
        FLAG, "serve-bench --workers: 1 runs in line, more fork that many"),
    ("repro/serving/cluster/fleet.py", "Cluster.run_all", "workers"): (
        FLAG, "serve-bench --replicas N --workers: the forked pool over replicas"),
    ("repro/serving/gateway.py", "StreamingGateway", "max_workers"): (
        HARNESS, "workloads.py passes max_workers=1; it goes with the next "
                 "benchmark change (ROADMAP 9(a))"),
}


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted(function, method):
    """``(parameter, position)`` of each defaulted parameter; position is
    ``None`` for keyword-only ones and skips a method's ``self``/``cls``."""
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", "") == "staticmethod" for d in function.decorator_list)
    if method and not static:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, index) for index, arg in enumerate(positional) if index >= first]
    found += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _init_false(value):
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", getattr(value.func, "attr", "")) == "field"
        and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        )
    )


def options():
    """``(module, qualified name, callee name, parameter, position)``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE.parent))
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    for parameter, position in _defaulted(node, method=False):
                        yield module, node.name, node.name, parameter, position
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_dataclass(node):
                    fields = [
                        statement for statement in node.body
                        if isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and "ClassVar" not in ast.unparse(statement.annotation)
                    ]
                    for position, statement in enumerate(fields):
                        if statement.value is not None and not _init_false(statement.value):
                            yield module, node.name, node.name, statement.target.id, position
                for statement in node.body:
                    if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if statement.name == "__init__":
                        qualified, callee = node.name, node.name
                    elif statement.name.startswith("_"):
                        continue
                    else:
                        qualified, callee = f"{node.name}.{statement.name}", statement.name
                    for parameter, position in _defaulted(statement, method=True):
                        yield module, qualified, callee, parameter, position


def _calls(tree):
    """``(callee name, call)`` for every call in ``tree``."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                function = child.func
                name = (
                    function.id if isinstance(function, ast.Name)
                    else function.attr if isinstance(function, ast.Attribute)
                    else None
                )
                yield (owner if name == "cls" and owner else name), child
            yield from walk(child, child.name if isinstance(child, ast.ClassDef) else owner)

    yield from walk(tree, None)


def passed(outside=None):
    """Callee name -> (keywords passed, most positional arguments passed),
    leaving out the calls in files under the directory ``outside``."""
    found = defaultdict(lambda: (set(), 0))
    for directory in CALLERS:
        for path in sorted(directory.rglob("*.py")):
            if outside is not None and outside in path.parents:
                continue
            for name, call in _calls(ast.parse(path.read_text())):
                if name is None or any(isinstance(a, ast.Starred) for a in call.args):
                    continue
                if any(keyword.arg is None for keyword in call.keywords):
                    continue
                keywords, most = found[name]
                found[name] = (
                    keywords | {keyword.arg for keyword in call.keywords},
                    max(most, len(call.args)),
                )
    return found


def unset_options(outside=None):
    calls = passed(outside)
    # ``dataclasses.replace(obj, name=...)`` sets a field of whatever ``obj`` is.
    replaced = calls["replace"][0]
    unset = []
    for module, qualified, callee, parameter, position in options():
        keywords, most = calls.get(callee, (set(), 0))
        if parameter in keywords or parameter in replaced:
            continue
        if position is not None and position < most:
            continue
        unset.append((module, qualified, parameter))
    return unset


def test_census_finds_options():
    # The scan sees the library: a parameter every caller passes is an option.
    found = {(module, qualified, parameter) for module, qualified, _, parameter, _ in options()}
    assert ("repro/asr/decoder.py", "Decoder", "beam") in found
    assert ("repro/serving/resilience.py", "RetryPolicy", "jitter") in found


def test_every_option_is_set_by_a_caller():
    unset = [option for option in unset_options() if option not in ALLOWED]
    assert not unset, (
        "options no caller in src/ or benchmarks/ sets (make each a constant): "
        + ", ".join(f"{module}:{qualified}({parameter}=)" for module, qualified, parameter in unset)
    )


def test_allowlist_holds_only_exempt_kinds_and_is_current():
    assert all(kind in (SEAM, ENTRY, HARNESS, FLAG) and reason for kind, reason in ALLOWED.values())
    # An entry whose option a caller now sets, or that is gone, is stale; a
    # frozen-harness argument is one that only benchmarks/perf passes.
    harness = {option for option, (kind, _) in ALLOWED.items() if kind == HARNESS}
    unset = set(unset_options())
    assert set(ALLOWED) - harness <= unset
    assert harness <= set(unset_options(outside=HARNESS_DIR)) - unset
