"""Query planner: compile each query class into a DAG of service stages.

Table 1 of the paper defines which services a query class exercises
(VC → ASR; VQ → ASR+QA; VIQ → ASR+QA+IMM).  Here that taxonomy becomes an
explicit :class:`QueryPlan` — a small DAG of :class:`PlanStage` nodes —
that the executor walks.  Stages at the same DAG depth are independent,
which is what lets the executor overlap a VIQ query's QA and IMM branches
(the Lucida-style service parallelism).

A live query's class is not known until after classification, so
:func:`full_plan` compiles the *speculative* plan with guard conditions
(``when=...``) that the executor evaluates once the transcript and
classification exist; :func:`compile_plan` returns the static per-class
DAGs used when the query class is known up front (benchmarks, simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.query import QueryType
from repro.errors import ConfigurationError
from repro.serving.service import ASR, CLASSIFY, IMM, QA


def _has_image(state) -> bool:
    return state.query.image is not None


def _needs_answer(state) -> bool:
    # A pure voice command (action, no image) short-circuits back to the
    # device; everything else gets a QA pass.
    return not (state.classification.is_action and state.query.image is None)


#: Named guard conditions a stage may carry; evaluated against the
#: executor's per-query state once upstream stages have run.
GUARDS: Dict[str, Callable[..., bool]] = {
    "has_image": _has_image,
    "needs_answer": _needs_answer,
}


@dataclass(frozen=True)
class PlanStage:
    """One node of a query plan."""

    name: str                    #: stage name (= service registry key)
    service: str                 #: which service executes this stage
    after: Tuple[str, ...] = ()  #: stage names that must complete first
    when: str = ""               #: guard name ('' = unconditional)
    record: bool = True          #: open a profiler section + service_seconds

    def guard(self) -> Callable[..., bool]:
        if not self.when:
            return lambda state: True
        try:
            return GUARDS[self.when]
        except KeyError:
            raise ConfigurationError(
                f"stage {self.name!r} references unknown guard {self.when!r}"
            ) from None


@dataclass(frozen=True)
class QueryPlan:
    """A validated DAG of service stages for one query class."""

    name: str
    stages: Tuple[PlanStage, ...]

    def __post_init__(self) -> None:
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"plan {self.name!r} has duplicate stage names")
        known = set(names)
        for stage in self.stages:
            for dep in stage.after:
                if dep not in known:
                    raise ConfigurationError(
                        f"stage {stage.name!r} depends on unknown stage {dep!r}"
                    )
            stage.guard()  # validate guard names at compile time
        self.levels()  # raises on cycles

    def levels(self) -> Tuple[Tuple[PlanStage, ...], ...]:
        """Stages grouped by DAG depth (Kahn waves), declaration-ordered.

        Every stage in one level is independent of the others, so a level
        is the unit of intra-query parallelism.
        """
        remaining = list(self.stages)
        done: set = set()
        waves: List[Tuple[PlanStage, ...]] = []
        while remaining:
            ready = tuple(
                stage for stage in remaining if set(stage.after) <= done
            )
            if not ready:
                cyclic = ", ".join(stage.name for stage in remaining)
                raise ConfigurationError(
                    f"plan {self.name!r} has a dependency cycle among: {cyclic}"
                )
            waves.append(ready)
            done.update(stage.name for stage in ready)
            remaining = [stage for stage in remaining if stage.name not in done]
        return tuple(waves)

    def order(self) -> Tuple[PlanStage, ...]:
        """Deterministic topological order (levels flattened)."""
        return tuple(stage for level in self.levels() for stage in level)

    def services(self) -> Tuple[str, ...]:
        """Distinct services the plan touches, in execution order."""
        seen: List[str] = []
        for stage in self.order():
            if stage.service not in seen:
                seen.append(stage.service)
        return tuple(seen)


def full_plan() -> QueryPlan:
    """The speculative runtime plan covering all three query classes.

    IMM and QA are guarded: which of them actually run is decided by the
    executor after ASR + classification, reproducing the monolithic
    pipeline's branching exactly.
    """
    return QueryPlan(
        name="sirius",
        stages=(
            PlanStage(name=ASR, service=ASR),
            PlanStage(name=CLASSIFY, service=CLASSIFY, after=(ASR,), record=False),
            PlanStage(name=IMM, service=IMM, after=(CLASSIFY,), when="has_image"),
            PlanStage(name=QA, service=QA, after=(CLASSIFY,), when="needs_answer"),
        ),
    )


def compile_plan(query_type: QueryType) -> QueryPlan:
    """Static plan for a known query class (Table 1 row → DAG)."""
    stages: List[PlanStage] = [
        PlanStage(name=ASR, service=ASR),
        PlanStage(name=CLASSIFY, service=CLASSIFY, after=(ASR,), record=False),
    ]
    if query_type is QueryType.VOICE_IMAGE_QUERY:
        stages.append(PlanStage(name=IMM, service=IMM, after=(CLASSIFY,)))
    if query_type in (QueryType.VOICE_QUERY, QueryType.VOICE_IMAGE_QUERY):
        stages.append(PlanStage(name=QA, service=QA, after=(CLASSIFY,)))
    return QueryPlan(name=query_type.value.lower(), stages=tuple(stages))
