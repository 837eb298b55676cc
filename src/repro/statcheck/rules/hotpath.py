"""Hot-path hygiene rules (SC2xx).

The "AI Tax" lesson: glue code around the kernels quietly dominates
latency.  SC201 catches the quadratic-growth pattern that benchmark
suites accumulate over time: an ndarray grown one piece per iteration.
"""

from __future__ import annotations

import ast

from repro.statcheck.core import Rule, RuleContext, Severity, normalized_call

_GROW_FUNCS = {
    "np.append",
    "np.concatenate",
    "np.vstack",
    "np.hstack",
    "np.dstack",
    "np.insert",
    "np.row_stack",
    "np.column_stack",
}


class ArrayGrowInLoop(Rule):
    """SC201: growing an ndarray one piece at a time inside a loop."""

    code = "SC201"
    name = "array-grow-in-loop"
    severity = Severity.WARNING
    summary = "np.append/np.concatenate/np.*stack called inside a loop"
    rationale = (
        "ndarrays cannot grow in place: each call reallocates and copies "
        "the whole accumulated array, so the loop is O(n^2) in total bytes "
        "moved.  Accumulate chunks in a Python list and concatenate once "
        "after the loop."
    )

    def visit_Call(self, node: ast.Call, ctx: RuleContext) -> None:
        fn = normalized_call(node.func)
        if fn in _GROW_FUNCS and ctx.in_loop():
            ctx.report(
                self,
                node,
                f"{fn}() inside a loop reallocates the full array every "
                "iteration (O(n^2) copying); collect pieces in a list and "
                "concatenate once after the loop",
            )
