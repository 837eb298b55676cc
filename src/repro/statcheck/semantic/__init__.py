"""Whole-program semantic analysis for statcheck (SC5xx-SC8xx).

The syntactic rule catalogue (SC1xx-SC4xx) judges one file at a time; the
invariants PRs 2-5 introduced — byte-identical chaos replays, pickle-clean
process dispatch, thread-shared ``Service`` instances — are *cross-file*
properties.  This subpackage builds a project-wide semantic model and runs
interprocedural rule families on top of it:

- :mod:`repro.statcheck.semantic.model` — module/import graph, function
  table, class-hierarchy map (who subclasses ``Kernel``/``Service``/``Rule``)
- :mod:`repro.statcheck.semantic.callgraph` — a conservative call graph
  over the analyzed files, with witness-path extraction
- :mod:`repro.statcheck.semantic.taint` — determinism-sink detection and
  root-to-sink reachability used by the SC5xx family
- :mod:`repro.statcheck.semantic.rules` — the semantic rule catalogue:
  SC5xx determinism taint, SC6xx process-boundary escape analysis,
  SC7xx shared-state concurrency hazards, SC801 async hygiene

:func:`repro.statcheck.core.analyze_paths` builds the model from the trees
it parsed for the syntactic rules and runs these rules on every
``repro lint``.
"""

from repro.statcheck.semantic.callgraph import CallGraph, build_call_graph
from repro.statcheck.semantic.model import ProjectModel, build_model
from repro.statcheck.semantic.rules import (
    SEMANTIC_RULE_CLASSES,
    SEMANTIC_RULE_CODES,
    SemanticRule,
)

__all__ = [
    "CallGraph",
    "ProjectModel",
    "SEMANTIC_RULE_CLASSES",
    "SEMANTIC_RULE_CODES",
    "SemanticRule",
    "build_call_graph",
    "build_model",
]
