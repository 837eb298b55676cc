"""Observability: tracing, metrics, and exporters for the serving stack.

The paper's datacenter argument is built from measured latency
distributions — Figure 8's p95 query variability, Figure 9's component
breakdown, Figure 17's queueing model.  This package is the layer that
produces those measurements from a live run:

- :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer` with
  deterministic seeded IDs (chaos replays export byte-identical span
  forests) propagated through the plan executor, every execution backend,
  the resilience wrappers, and down to component sections; streaming runs
  add ``partial`` spans, from which time-to-first-partial
  (``serve.ttfp.seconds``) is derived next to end-to-end latency;
- :mod:`repro.obs.context` — the ambient (thread-local) tracer channel
  that lets layers without shared signatures report into one trace, and
  :func:`~repro.obs.context.section`, the one way a component is timed;
- :mod:`repro.obs.metrics` — the arithmetic under every distribution:
  exact percentiles and the deterministic bottom-k value reservoir;
- :mod:`repro.obs.export` — JSONL span export (optionally
  timing-stripped/deterministic) and Chrome trace-event export;
- :mod:`repro.obs.report` — the ``repro trace-report`` renderer:
  per-query waterfalls, per-service p50/p95/p99 summaries, the
  measured-histogram vs M/M/1 comparison, and the roofline placement of
  traced kernels;
- :mod:`repro.obs.counters` — deterministic work counters (flops, bytes,
  items, invocations) that hot paths attach to the innermost span;
- :mod:`repro.obs.critical_path` — longest-path extraction and exact
  self/wait/virtual time attribution over span forests
  (``repro trace-report --critical-path``);
- :mod:`repro.obs.bench` — the benchmark registry, ``BENCH_<tag>.json``
  reports, and the counter-based regression gate (``repro bench``);
- :mod:`repro.obs.timeseries` — :class:`RollupStore`, the one telemetry
  store: counters + value panels keyed by metric × labels × window over
  virtual time, with an associative/commutative/exact snapshot merge;
- :mod:`repro.obs.sampling` — deterministic trace sampling: hash-based
  head decisions pure in ``(seed, trace_id)`` plus always-keep tail
  rules for errors/deadlines/breaker-opens/degradations and a
  slowest-k reservoir, with the span-reduction bill;
- :mod:`repro.obs.slo` — declarative SLOs, error budgets, and
  multi-window burn-rate alerts evaluated over rollup snapshots;
- :mod:`repro.obs.fleet_report` — the ``repro fleet-report`` dashboard
  and its canonical golden-pinnable JSON rendering;
- :mod:`repro.obs.pricing` — the single home for watt/dollar constants
  (Table 6 TDPs, server prices, electricity and TCO rates) derived from
  :mod:`repro.platforms.spec`; statcheck rule ``SC1002`` keeps magic
  pricing numbers from appearing anywhere else;
- :mod:`repro.obs.cost` — the ``repro cost-report`` ledger: per-query,
  per-stage energy (exact integer microjoules) and dollars folded from
  span forests or cluster replays, the compute-vs-AI-tax decomposition,
  platform what-if repricing against Figure 18's TCO ordering, and the
  million-query-day fleet extrapolation.

Wired into ``repro serve-bench --trace/--metrics``, ``repro trace-report``,
``repro fleet-report``, ``repro cost-report`` and ``repro bench``; see
``docs/OBSERVABILITY.md`` and ``docs/BENCHMARKING.md``.
"""

from repro.obs.context import use_tracer
from repro.obs.critical_path import format_critical_path_report
from repro.obs.export import (
    read_jsonl,
    span_from_dict,
    span_to_dict,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import percentile
from repro.obs.report import (
    format_roofline,
    format_service_summary,
    metrics_from_spans,
    render_report,
)
from repro.obs.timeseries import E2E_METRIC, RollupStore
from repro.obs.trace import (
    ATTEMPT,
    QUERY,
    SECTION,
    SERVICE,
    Span,
    Tracer,
    collect_spans,
    span_id_for,
    trace_id_for,
)

__all__ = [
    "ATTEMPT",
    "E2E_METRIC",
    "QUERY",
    "RollupStore",
    "SECTION",
    "SERVICE",
    "Span",
    "Tracer",
    "collect_spans",
    "format_critical_path_report",
    "format_roofline",
    "format_service_summary",
    "metrics_from_spans",
    "percentile",
    "read_jsonl",
    "render_report",
    "span_from_dict",
    "span_id_for",
    "span_to_dict",
    "to_chrome_trace",
    "to_jsonl",
    "trace_id_for",
    "use_tracer",
    "write_chrome_trace",
    "write_jsonl",
]
