"""Serving conformance suite: the contracts any cluster deployment must hold.

Reusable checks (:mod:`tests.conformance.suite`) over fast picklable stub
fleets (:mod:`tests.conformance.stubs`), parameterized across every
routing policy and worker count (in line, and fanned out on forked
processes):

- **conservation** — exactly one response per query, in stream order, no
  drops and no duplicates, admitted or shed;
- **replay** — the same ``(seed, query stream)`` produces byte-identical
  outcome fingerprints and timing-stripped span forests at every worker count,
  chaos plan included;
- **degradation** — shard failures stay partial (annotated, answer still
  served) until every shard is gone, and only then degrade the query;
- **tail prediction** — the virtual-time replay's p99 lands within a
  documented bound of the analytic M/M/1 tail at matched utilization.
"""
