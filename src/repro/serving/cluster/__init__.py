"""Cluster-scale serving: sharded replicas, pluggable routing, autoscaling.

The single-node serving layer answers "how fast is one query"; this
package answers the paper's warehouse-scale question — what does a *fleet*
of Sirius replicas look like under load?  Four modules:

- :mod:`repro.serving.cluster.router` — pluggable load-balancing policies
  (round-robin, least-loaded, power-of-two-choices) and seeded admission
  control, every decision a pure function of ``(seed, ordinal)`` and the
  load signal;
- :mod:`repro.serving.cluster.sharding` — shard builders for the IMM image
  database and the QA search index, plus scatter/gather services with
  deterministic merges and a partial-result degradation contract;
- :mod:`repro.serving.cluster.fleet` — the live :class:`Cluster`: real
  replicated executors behind the router, router spans and queue metrics
  per query, conservation guaranteed;
- :mod:`repro.serving.cluster.autoscaler` / :mod:`~repro.serving.cluster.
  replay` — the SLO-driven scaling policy and the virtual-time open-loop
  replay driver that exercises it at model scale (millions of queries by
  extrapolation), validated against the M/M/1 closed form.

The whole layer is locked down by the reusable serving conformance suite
in ``tests/conformance/``.  See ``docs/CLUSTER.md``.
"""

from repro.serving.cluster.autoscaler import (
    HOLD,
    SCALE_DOWN,
    SCALE_UP,
    AutoscalerPolicy,
    ScaleDecision,
)
from repro.serving.cluster.fleet import Cluster, RouteDecision, build_cluster
from repro.serving.cluster.replay import (
    FleetEstimate,
    QueryOutcome,
    ReplayResult,
    extrapolate_fleet,
    replay_cluster,
    seeded_replay,
)
from repro.serving.cluster.router import (
    LEAST_LOADED,
    POWER_OF_TWO,
    ROUND_ROBIN,
    AdmissionControl,
    LeastLoadedPolicy,
    PowerOfTwoPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    available_policies,
    get_policy,
)
from repro.serving.cluster.sharding import (
    ShardedImmService,
    ShardedQaService,
    merge_match_candidates,
    merge_ranked_answers,
    shard_documents,
    shard_image_database,
    shard_qa_engines,
    shard_service_name,
)

__all__ = [
    "AdmissionControl",
    "AutoscalerPolicy",
    "Cluster",
    "FleetEstimate",
    "HOLD",
    "LEAST_LOADED",
    "LeastLoadedPolicy",
    "POWER_OF_TWO",
    "PowerOfTwoPolicy",
    "QueryOutcome",
    "ROUND_ROBIN",
    "ReplayResult",
    "RouteDecision",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "SCALE_DOWN",
    "SCALE_UP",
    "ScaleDecision",
    "ShardedImmService",
    "ShardedQaService",
    "available_policies",
    "build_cluster",
    "extrapolate_fleet",
    "get_policy",
    "merge_match_candidates",
    "merge_ranked_answers",
    "replay_cluster",
    "seeded_replay",
    "shard_documents",
    "shard_image_database",
    "shard_qa_engines",
    "shard_service_name",
]
