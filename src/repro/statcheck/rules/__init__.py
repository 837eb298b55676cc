"""The statcheck rule catalogue: the five rules that have caught code here.

- ``SC101``, ``SC103`` numeric stability (:mod:`repro.statcheck.rules.numeric`)
- ``SC201`` hot-path hygiene (:mod:`repro.statcheck.rules.hotpath`)
- ``SC901`` telemetry naming (:mod:`repro.statcheck.rules.naming`)
- ``SC1002`` cost-constant provenance (:mod:`repro.statcheck.rules.pricing`)

``SC001`` (parse failure) is emitted by the framework itself, not a rule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Type

from repro.errors import StatcheckError
from repro.statcheck.core import Rule
from repro.statcheck.rules.hotpath import ArrayGrowInLoop
from repro.statcheck.rules.naming import DynamicTelemetryName
from repro.statcheck.rules.numeric import DefaultDtypeAccumulator, UnguardedProbLog
from repro.statcheck.rules.pricing import InlinePricingConstant

#: Every rule class, in code order.
RULE_CLASSES: Tuple[Type[Rule], ...] = (
    UnguardedProbLog,
    DefaultDtypeAccumulator,
    ArrayGrowInLoop,
    DynamicTelemetryName,
    InlinePricingConstant,
)


def _validated(codes: Sequence[str]) -> Set[str]:
    """Normalized codes; an unknown code (``SC999``, a typo like ``SC10l``)
    raises a :class:`~repro.errors.StatcheckError` listing every valid code,
    so a mistyped ``--select``/``--ignore`` can never silently narrow a run."""
    known = [cls.code for cls in RULE_CLASSES]
    normalized = set()
    for code in codes:
        cleaned = code.strip().upper()
        if not cleaned:
            continue
        if cleaned not in known:
            raise StatcheckError(
                f"unknown rule code {cleaned!r} (valid codes: {', '.join(known)})"
            )
        normalized.add(cleaned)
    return normalized


def resolve_selection(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Rule]:
    """Rule instances, code order, for a ``--select``/``--ignore`` pair.

    ``select=None`` means the whole catalogue; ``ignore`` is subtracted
    afterwards.  An empty final selection raises :class:`StatcheckError`.
    """
    selected = _validated(select) if select is not None else None
    ignored = _validated(ignore) if ignore is not None else set()
    rules = [
        cls()
        for cls in RULE_CLASSES
        if (selected is None or cls.code in selected) and cls.code not in ignored
    ]
    if not rules:
        raise StatcheckError("rule selection is empty")
    return rules


__all__ = ["RULE_CLASSES", "resolve_selection"]
