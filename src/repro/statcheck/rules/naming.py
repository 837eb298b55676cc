"""Telemetry naming rules (SC9xx): metric and span name hygiene.

The fleet telemetry plane keys every rollup cell and sampling decision by
metric/span *name*.  Names are therefore part of the golden surface: a
name built with an f-string per call both defeats golden pinning
(cardinality explodes with the interpolated value) and allocates a fresh
string on the hot path.  What varies per call (stage, replica, status)
belongs in the store's labels, not in the name.

Precise-or-silent: only literal or syntactically-dynamic name arguments
are judged; a name passed through a variable is someone else's problem.
"""

from __future__ import annotations

import ast
import re

from repro.statcheck.core import Rule, RuleContext, Severity

#: Store methods (:class:`repro.obs.timeseries.RollupStore`) whose first
#: argument is a metric name, wherever called.
_METRIC_METHODS = ("inc", "observe")

#: Tracer methods whose first argument is a span name; judged inside loops
#: only (one-off root names, e.g. ``trace(..., name=...)``, stay free-form).
_SPAN_METHODS = ("begin_span", "span")

#: The canonical shape: dotted lowercase segments, e.g. ``serve.e2e.seconds``.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: Node shapes that build a string at call time.
_DYNAMIC = "f-string, concatenation, %, or .format()"


def _name_argument(node: ast.Call) -> ast.AST:
    """The name argument of a metric/span call: positional, ``metric=``
    or ``name=``."""
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg in ("metric", "name"):
            return keyword.value
    return None


def _is_dynamic(arg: ast.AST) -> bool:
    if isinstance(arg, ast.JoinedStr):
        return True
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Add, ast.Mod)):
        # Only call it string-building when a string literal is visible on
        # either side; ``a + b`` on opaque names stays silent.
        return any(
            isinstance(side, ast.Constant) and isinstance(side.value, str)
            for side in (arg.left, arg.right)
        )
    return (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Attribute)
        and arg.func.attr == "format"
    )


class DynamicTelemetryName(Rule):
    """SC901: metric/span names must be dotted-lowercase literals."""

    code = "SC901"
    name = "dynamic-telemetry-name"
    severity = Severity.WARNING
    summary = (
        "metric/span name built dynamically (or literal not dotted-lowercase)"
    )
    rationale = (
        "Telemetry names key rollup cells, golden files, and sampling "
        "decisions; an f-string or concatenated name explodes series "
        "cardinality with the interpolated value and allocates per call on "
        "the hot path.  Use a dotted-lowercase literal and carry what "
        "varies per call (stage, replica, status) as a label."
    )

    def visit_Call(self, node: ast.Call, ctx: RuleContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in _METRIC_METHODS:
            kind = "metric"
        elif func.attr in _SPAN_METHODS and ctx.in_loop():
            kind = "span"
        else:
            return
        arg = _name_argument(node)
        if arg is None:
            return
        if _is_dynamic(arg):
            ctx.report(
                self,
                arg,
                f"{kind} name for .{func.attr}() is built at call time "
                f"({_DYNAMIC}); use a dotted-lowercase literal and put "
                "what varies in a label",
            )
        elif isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not _NAME_RE.match(arg.value):
                ctx.report(
                    self,
                    arg,
                    f"{kind} name {arg.value!r} is not dotted-lowercase "
                    "(expected e.g. 'serve.e2e.seconds')",
                )
