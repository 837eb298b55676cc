"""Service-oriented serving layer: Service envelopes, the query walk, fan-out.

The paper's headline results treat Sirius as a set of datacenter services
(per-service latency, M/M/1 queueing, throughput at load).  This package
gives the reproduction that architecture explicitly:

- :mod:`repro.serving.service` — the uniform :class:`Service` interface
  (``invoke`` on a typed request envelope, ``warmup()``) with
  ASR/QA/IMM/classifier wrappers;
- :mod:`repro.serving.backends` — the two map functions
  (:func:`map_processes`, :func:`map_threads`) shared with the Sirius
  Suite ports (:mod:`repro.suite.base`);
- :mod:`repro.serving.executor` — the plan executor: one walk per query
  (ASR, classify, IMM for an image, QA unless a voice command), whole-query
  fan-out on forked processes, and graceful degradation when a service
  fails;
- :mod:`repro.serving.resilience` — deadlines, bounded seeded-jitter
  retries, and per-service circuit breakers applied by the
  :class:`ResilientService` decorator;
- :mod:`repro.serving.faults` — the deterministic, seeded fault-injection
  harness (:class:`FaultPlan` / :class:`FaultInjector`) behind the chaos
  test suite and ``repro serve-bench --chaos``;
- :mod:`repro.serving.sessions` — the streaming ASR session
  (``feed`` / ``partials`` / ``finish``): incremental decoding
  over a bare ASR service, one buffered ``invoke`` over a wrapped one;
- :mod:`repro.serving.gateway` — the asyncio front door multiplexing many
  concurrent slow-arriving voice sessions, with VAD endpointing firing
  downstream stages.  See ``docs/STREAMING.md``;
- :mod:`repro.serving.cluster` — the fleet layer: sharded replica
  executors behind a pluggable router, seeded admission control, an SLO
  autoscaler, and the virtual-time traffic-replay driver.  See
  ``docs/CLUSTER.md``.

:class:`~repro.core.pipeline.SiriusPipeline` is a thin facade over this
layer.  See ``docs/SERVING.md`` for the architecture.
"""

from repro.serving.backends import default_workers, map_processes, map_threads
from repro.serving.service import (
    ASR,
    CLASSIFY,
    IMM,
    QA,
    AsrService,
    ClassifierService,
    ImmService,
    QaService,
    Service,
    ServiceRequest,
    StageOutcome,
)
from repro.serving.executor import (
    FATAL_SERVICES,
    ExecutionState,
    PlanExecutor,
    RouterTicket,
    build_executor,
)
from repro.serving.faults import (
    CorruptPayload,
    FaultInjector,
    FaultPlan,
    FaultRule,
    charge_virtual_seconds,
    default_chaos_plan,
    drain_virtual_seconds,
)
from repro.serving.sessions import AsrSession
from repro.serving.gateway import (
    GatewaySession,
    StreamingGateway,
    StreamReport,
    chunk_waveform,
    serve_streams,
)
from repro.serving.resilience import (
    BreakerPolicy,
    CallRecord,
    CircuitBreaker,
    ResiliencePolicy,
    ResilientService,
    RetryPolicy,
    default_policies,
    resilient_executor,
    wrap_services,
)

__all__ = [
    "ASR",
    "AsrService",
    "AsrSession",
    "CLASSIFY",
    "IMM",
    "QA",
    "BreakerPolicy",
    "CallRecord",
    "CircuitBreaker",
    "ClassifierService",
    "CorruptPayload",
    "ExecutionState",
    "FATAL_SERVICES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "GatewaySession",
    "ImmService",
    "PlanExecutor",
    "QaService",
    "ResiliencePolicy",
    "ResilientService",
    "RetryPolicy",
    "RouterTicket",
    "Service",
    "ServiceRequest",
    "StageOutcome",
    "StreamReport",
    "StreamingGateway",
    "build_executor",
    "charge_virtual_seconds",
    "chunk_waveform",
    "default_chaos_plan",
    "default_policies",
    "default_workers",
    "drain_virtual_seconds",
    "map_processes",
    "map_threads",
    "resilient_executor",
    "serve_streams",
    "wrap_services",
]
