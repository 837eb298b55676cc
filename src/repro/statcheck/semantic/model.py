"""The project semantic model: modules, imports, functions, class hierarchy.

:func:`build_model` indexes modules parsed once by
:func:`repro.statcheck.core.parse_paths` into a :class:`ProjectModel` the
interprocedural passes share.  Resolution is deliberately *name-level* (no
runtime imports, no type inference beyond literal constructor
assignments): every lookup either resolves to a project-qualified name or
degrades to "unknown", never to a guess.

Qualified names follow runtime dotted paths: ``repro.obs.export.to_jsonl``
for a module function, ``repro.serving.service.Service.__call__`` for a
method.  Module names are recovered from the filesystem by walking up
while the parent directory holds an ``__init__.py`` — which handles both
``src/repro/...`` layouts and standalone fixture packages.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.statcheck.core import SourceFile, dotted_name

#: Marks a function as a deterministic-export root for the SC5xx taint pass
#: when placed on (or immediately above) its ``def`` line.
DETERMINISTIC_PRAGMA = re.compile(r"#\s*statcheck:\s*deterministic\b")


def module_name_for(path: Path) -> str:
    """Dotted module name recovered from the package layout on disk."""
    path = Path(path)
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class FunctionInfo:
    """One module-level function or class method (graph node granularity).

    Nested defs/lambdas are *not* separate nodes: their calls and sinks are
    attributed to the enclosing top-level function, which over-approximates
    reachability in exactly the conservative direction the taint pass wants.
    """

    qname: str                     #: e.g. ``repro.obs.export.to_jsonl``
    module: str                    #: owning module's dotted name
    name: str                      #: bare name (``to_jsonl``)
    node: ast.AST                  #: the FunctionDef / AsyncFunctionDef
    cls: Optional[str] = None      #: owning class qname, for methods
    lineno: int = 0
    is_deterministic_root: bool = False


@dataclass
class ClassInfo:
    """One class definition and its (best-effort resolved) bases."""

    qname: str                     #: e.g. ``repro.serving.service.Service``
    module: str
    name: str
    node: ast.ClassDef
    #: Base names: project-qualified when resolvable, raw dotted otherwise.
    bases: Tuple[str, ...] = ()
    #: method bare name -> method qname
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module: AST, source, import bindings, top-level defs."""

    name: str
    path: str                      #: display path (as reported in findings)
    tree: ast.Module
    source_lines: Sequence[str]
    #: local binding -> dotted target (module, or module.attr)
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)  #: bare -> qname
    classes: Dict[str, str] = field(default_factory=dict)    #: bare -> qname


class ProjectModel:
    """Whole-program lookup tables shared by the semantic passes."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- name resolution -----------------------------------------------------

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve a dotted name used inside ``module`` to a project qname.

        Handles module-local functions/classes, import bindings (``from x
        import y as z`` / ``import x.y as m``), and attribute chains through
        module aliases (``m.func`` -> ``x.y.func``).  Returns ``None`` for
        anything outside the analyzed files.
        """
        info = self.modules.get(module)
        if info is None or not dotted:
            return None
        head, _, rest = dotted.partition(".")
        if not rest:
            target = (
                info.functions.get(head)
                or info.classes.get(head)
                or info.imports.get(head)
            )
            return self._canonical(target)
        if head in info.imports:
            return self._canonical(info.imports[head] + "." + rest)
        if head in info.classes:  # ClassName.method used as a value
            return self._canonical(info.classes[head] + "." + rest)
        return None

    def _canonical(self, qname: Optional[str]) -> Optional[str]:
        """Collapse a resolved dotted target onto a known project entity."""
        if qname is None:
            return None
        if qname in self.functions or qname in self.classes or qname in self.modules:
            return qname
        # ``from pkg import mod``-style binding followed by ``mod.func``:
        # re-resolve the attribute through the bound module's own tables.
        head, _, tail = qname.rpartition(".")
        if head in self.modules and tail:
            return self.resolve(head, tail)
        return None

    # -- class hierarchy -----------------------------------------------------

    def mro_candidates(self, class_qname: str) -> List[str]:
        """The class and its project ancestors, nearest first (cycle-safe)."""
        order: List[str] = []
        stack = [class_qname]
        seen = set()
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            order.append(current)
            stack.extend(self.classes[current].bases)
        return order

    def subclasses_of(self, *root_names: str) -> List[ClassInfo]:
        """Project classes whose ancestry reaches a base named in ``root_names``.

        Roots match either a full project qname or a bare class name, so the
        check works both on the real tree (``repro.serving.service.Service``)
        and on fixture packages that declare their own ``Service`` stub.
        """
        roots = set(root_names)

        def reaches_root(qname: str, trail: frozenset) -> bool:
            if qname in trail:
                return False
            info = self.classes.get(qname)
            if info is None:
                return qname in roots or qname.rpartition(".")[2] in roots
            if info.name in roots or qname in roots:
                return True
            return any(
                reaches_root(base, trail | {qname}) for base in info.bases
            )

        found = [
            info
            for qname, info in sorted(self.classes.items())
            if info.name not in roots
            and any(reaches_root(base, frozenset({qname})) for base in info.bases)
        ]
        return found

    def resolve_method(self, class_qname: str, method: str) -> Optional[str]:
        """Find ``method`` on the class or its nearest project ancestor."""
        for candidate in self.mro_candidates(class_qname):
            info = self.classes[candidate]
            if method in info.methods:
                return info.methods[method]
        return None


def _relative_target(module: str, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    # level=1 from inside pkg.mod means pkg; __init__ modules are already
    # named by their package, so the same arithmetic applies.
    if node.level > len(parts):
        return None
    base = parts[: len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


def _collect_imports(module: str, tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds ``a``; attribute chains re-resolve
                    # through the module table, so binding the root suffices.
                    imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            target = _relative_target(module, node)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{target}.{alias.name}"
    return imports


def _has_deterministic_pragma(
    source_lines: Sequence[str], node: ast.AST
) -> bool:
    lineno = getattr(node, "lineno", 0)
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(source_lines) and DETERMINISTIC_PRAGMA.search(
            source_lines[candidate - 1]
        ):
            return True
    return False


def _index_module(model: ProjectModel, info: ModuleInfo) -> None:
    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = f"{info.name}.{node.name}"
            info.functions[node.name] = qname
            model.functions[qname] = FunctionInfo(
                qname=qname,
                module=info.name,
                name=node.name,
                node=node,
                lineno=node.lineno,
                is_deterministic_root=_has_deterministic_pragma(
                    info.source_lines, node
                ),
            )
        elif isinstance(node, ast.ClassDef):
            class_qname = f"{info.name}.{node.name}"
            info.classes[node.name] = class_qname
            methods: Dict[str, str] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method_qname = f"{class_qname}.{item.name}"
                    methods[item.name] = method_qname
                    model.functions[method_qname] = FunctionInfo(
                        qname=method_qname,
                        module=info.name,
                        name=item.name,
                        node=item,
                        cls=class_qname,
                        lineno=item.lineno,
                        is_deterministic_root=_has_deterministic_pragma(
                            info.source_lines, item
                        ),
                    )
            model.classes[class_qname] = ClassInfo(
                qname=class_qname,
                module=info.name,
                name=node.name,
                node=node,
                methods=methods,
            )


def _resolve_bases(model: ProjectModel) -> None:
    for class_info in model.classes.values():
        resolved: List[str] = []
        for base in class_info.node.bases:
            dotted = dotted_name(base)
            if not dotted:
                continue
            target = model.resolve(class_info.module, dotted)
            resolved.append(target if target is not None else dotted)
        class_info.bases = tuple(resolved)


def build_model(sources: Iterable[SourceFile]) -> ProjectModel:
    """Index parsed modules (:func:`repro.statcheck.core.parse_paths`) into
    one :class:`ProjectModel`.

    Files that fail to parse never get here — ``analyze_paths`` reports
    them as ``SC001``, and a half-parsed module would only poison the
    whole-program tables.
    """
    model = ProjectModel()
    for source in sources:
        name = module_name_for(source.file)
        info = ModuleInfo(
            name=name,
            path=source.path,
            tree=source.tree,
            source_lines=source.source_lines,
        )
        info.imports = _collect_imports(name, source.tree)
        # Last parse of a duplicated module name wins; analyzed trees are
        # disjoint packages in practice so collisions mean duplicated input.
        model.modules[name] = info
        _index_module(model, info)
    _resolve_bases(model)
    return model
