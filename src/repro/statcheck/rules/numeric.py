"""Numeric-stability rules (SC1xx).

The Sirius kernels live and die in log space (GMM scoring, Viterbi, CRF
forward-backward), so the catalogue opens with two ways that log-space
code rots: taking ``log`` of something that can reach zero, and
accumulating into arrays whose dtype was never pinned down.
"""

from __future__ import annotations

import ast
from typing import Dict, Set

from repro.statcheck.core import (
    Rule,
    RuleContext,
    Severity,
    identifiers,
    normalized_call,
    scope_walk,
)

_LOG_FUNCS = {"np.log", "np.log2", "np.log10", "math.log", "math.log2", "math.log10"}
_GUARD_FUNCS = {"np.clip", "np.maximum", "np.fmax", "max"}
_PROB_TOKENS = ("prob", "likelihood", "posterior", "responsib", "weight")
_EPS_TOKENS = ("eps", "tiny", "floor")


def _is_guarded(arg: ast.AST) -> bool:
    """Does the log argument carry a visible clip/epsilon guard?"""
    if isinstance(arg, ast.Call) and normalized_call(arg.func) in _GUARD_FUNCS:
        return True
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add):
        for side in (arg.left, arg.right):
            if (
                isinstance(side, ast.Constant)
                and isinstance(side.value, (int, float))
                and 0 < side.value <= 1e-3
            ):
                return True
            if any(
                token in ident
                for ident in identifiers(side)
                for token in _EPS_TOKENS
            ):
                return True
    return False


class UnguardedProbLog(Rule):
    """SC101: ``log`` of a probability-like value without a guard."""

    code = "SC101"
    name = "unguarded-prob-log"
    severity = Severity.WARNING
    summary = (
        "log() applied to a probability-like value without a clip/epsilon "
        "guard"
    )
    rationale = (
        "Probabilities, likelihoods, mixture weights and responsibilities "
        "can underflow to exactly 0.0, and log(0) is -inf; one -inf poisons "
        "every downstream sum (GMM scoring, Viterbi path scores).  Guard "
        "with np.log(np.maximum(x, tiny)), add an epsilon, or validate the "
        "range first and suppress the finding at the call site."
    )

    def visit_Call(self, node: ast.Call, ctx: RuleContext) -> None:
        fn = normalized_call(node.func)
        if fn not in _LOG_FUNCS or not node.args:
            return
        arg = node.args[0]
        if _is_guarded(arg):
            return
        for ident in identifiers(arg):
            if "log" in ident:  # already in log space; SC101 is about raw p
                continue
            if any(token in ident for token in _PROB_TOKENS):
                ctx.report(
                    self,
                    node,
                    f"{fn}() on probability-like value {ident!r} without a "
                    "clip/epsilon guard (log(0) -> -inf); use "
                    "np.log(np.maximum(x, tiny)) or validate the range first",
                )
                return


_ALLOC_FUNCS = {"np.zeros", "np.empty", "np.ones"}


class DefaultDtypeAccumulator(Rule):
    """SC103: accumulating into an array allocated without a dtype."""

    code = "SC103"
    name = "default-dtype-accumulator"
    severity = Severity.WARNING
    summary = (
        "array allocated without an explicit dtype is accumulated into "
        "(+=) in the same function"
    )
    rationale = (
        "np.zeros/np.empty default to float64 today, but the accumulation "
        "dtype is an accuracy and performance contract in scoring loops "
        "(the TPU paper's datatype-discipline lesson).  Pin it with "
        "dtype=np.float64 (or float32 where intended) so mixed-precision "
        "refactors cannot silently change results."
    )

    def _check_scope(self, node: ast.AST, ctx: RuleContext) -> None:
        allocations: Dict[str, ast.Call] = {}
        accumulated: Set[str] = set()
        for sub in scope_walk(node):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Call)
                and normalized_call(sub.value.func) in _ALLOC_FUNCS
                and len(sub.value.args) < 2  # dtype may be 2nd positional
                and not any(kw.arg == "dtype" for kw in sub.value.keywords)
            ):
                allocations.setdefault(sub.targets[0].id, sub.value)
            elif isinstance(sub, ast.AugAssign):
                target = sub.target
                if isinstance(target, ast.Name):
                    accumulated.add(target.id)
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    accumulated.add(target.value.id)
        for name in sorted(allocations.keys() & accumulated):
            ctx.report(
                self,
                allocations[name],
                f"array {name!r} is allocated without an explicit dtype and "
                "accumulated into; pass dtype= to pin the accumulation "
                "precision",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: RuleContext) -> None:
        self._check_scope(node, ctx)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, ctx: RuleContext
    ) -> None:
        self._check_scope(node, ctx)
