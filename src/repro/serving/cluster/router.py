"""Pluggable load-balancing policies and seeded admission control.

The cluster router makes two decisions per query — *admit it?* and *which
replica?* — and both must be **pure functions of ``(seed, ordinal)`` and
the deterministic load signal**, never of wall clocks or thread timing.
That is the property the whole cluster layer leans on: with decisions
pure, the same ``(seed, arrival process)`` replays byte-identically across
serial/thread/process backends and across live vs. model-extrapolated
runs, which is what lets the conformance suite (``tests/conformance/``)
compare them at all.

Three classic policies ship in the registry:

- ``round-robin`` — ordinal modulo fleet size; ignores load entirely.
- ``least-loaded`` — global minimum queue depth, ties to the lowest
  replica index (it can never pick a strictly-worse replica than any
  alternative, the invariant the property suite checks).
- ``power-of-two`` — the power-of-two-choices rule: sample two replicas
  with a seeded per-ordinal coin and take the less loaded.  The classic
  result (Mitzenmacher) is that two choices already collapse the max-load
  gap versus random/round-robin placement; the pinned-seed property test
  measures exactly that collapse on adversarial depth streams.

Policies see only a *depth vector* — they do not know whether the depths
came from the live fleet's deterministic assignment counts
(:mod:`repro.serving.cluster.fleet`) or the replay driver's true
virtual-time queue lengths (:mod:`repro.serving.cluster.replay`).
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Canonical policy names, in registry order.
ROUND_ROBIN = "round-robin"
LEAST_LOADED = "least-loaded"
POWER_OF_TWO = "power-of-two"


class RoutingPolicy(abc.ABC):
    """One cross-query load-balancing rule.

    ``choose`` must be a pure function of its arguments: no internal
    mutable state, no wall clock, no unseeded randomness.  The router
    passes the policy a snapshot of per-replica queue depths and the
    query's stream ordinal; the policy returns a replica index.
    """

    name: str = ""

    @abc.abstractmethod
    def choose(self, ordinal: int, depths: Sequence[int], seed: int = 0) -> int:
        """Pick a replica index in ``range(len(depths))`` for this query."""

    def __repr__(self) -> str:
        return f"<RoutingPolicy {self.name}>"


def _check_depths(depths: Sequence[int]) -> None:
    if not depths:
        raise ConfigurationError("routing needs at least one replica")


class RoundRobinPolicy(RoutingPolicy):
    """Cyclic placement: replica ``ordinal % n``, blind to load."""

    name = ROUND_ROBIN

    def choose(self, ordinal: int, depths: Sequence[int], seed: int = 0) -> int:  # noqa: ARG002
        _check_depths(depths)
        return ordinal % len(depths)


class LeastLoadedPolicy(RoutingPolicy):
    """Global minimum queue depth; ties break to the lowest index."""

    name = LEAST_LOADED

    def choose(self, ordinal: int, depths: Sequence[int], seed: int = 0) -> int:  # noqa: ARG002
        _check_depths(depths)
        best = 0
        for index in range(1, len(depths)):
            if depths[index] < depths[best]:
                best = index
        return best


class PowerOfTwoPolicy(RoutingPolicy):
    """Power-of-two-choices: two seeded samples, keep the less loaded.

    The per-query coin is ``random.Random(f"{seed}:{ordinal}:p2c")`` —
    string seeding hashes with sha512, so the draw is identical across
    processes and ``PYTHONHASHSEED`` values (the same construction as
    :meth:`repro.serving.faults.FaultPlan.fault_for`).  Ties (equal depth)
    break to the lower replica index for determinism.
    """

    name = POWER_OF_TWO

    def choose(self, ordinal: int, depths: Sequence[int], seed: int = 0) -> int:
        _check_depths(depths)
        n = len(depths)
        if n == 1:
            return 0
        rng = random.Random(f"{seed}:{ordinal}:p2c")
        first = rng.randrange(n)
        second = rng.randrange(n)
        candidates = sorted({first, second})
        return min(candidates, key=lambda index: (depths[index], index))


_POLICIES: Dict[str, Callable[[], RoutingPolicy]] = {
    ROUND_ROBIN: RoundRobinPolicy,
    LEAST_LOADED: LeastLoadedPolicy,
    POWER_OF_TWO: PowerOfTwoPolicy,
}


def available_policies() -> tuple:
    """Registered policy names, sorted."""
    return tuple(sorted(_POLICIES))


def get_policy(name: str) -> RoutingPolicy:
    """Instantiate a registered policy by name."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown routing policy {name!r} "
            f"(available: {', '.join(available_policies())})"
        ) from None
    return factory()


class AdmissionControl:
    """Seeded, deterministic load shedding at the router.

    Two independent mechanisms, both pure in ``(seed, ordinal, depth)``:

    - ``max_depth`` — reject when the chosen replica's queue depth has
      already reached the bound (the classic bounded-queue admission rule);
    - ``drop_rate`` — a seeded per-ordinal coin that sheds a fixed fraction
      of traffic regardless of load (chaos-style overload rehearsal).

    ``admit`` returns ``True`` to accept.  Rejections surface as failed
    responses carrying the stable :class:`~repro.errors.AdmissionError`
    code (``ADMISSION``), never as exceptions killing the stream.
    """

    def __init__(
        self,
        max_depth: int = 0,
        drop_rate: float = 0.0,
        seed: int = 0,
    ):
        if max_depth < 0:
            raise ConfigurationError("max_depth must be >= 0 (0 disables it)")
        if not 0.0 <= drop_rate <= 1.0:
            raise ConfigurationError("drop_rate must be in [0, 1]")
        self.max_depth = max_depth
        self.drop_rate = drop_rate
        self.seed = seed

    def admit(self, ordinal: int, depth: int) -> bool:
        """Admission decision for one query, deterministically."""
        if self.max_depth and depth >= self.max_depth:
            return False
        if self.drop_rate > 0.0:
            rng = random.Random(f"{self.seed}:{ordinal}:admit")
            if rng.random() < self.drop_rate:
                return False
        return True

    def __repr__(self) -> str:
        return (f"<AdmissionControl max_depth={self.max_depth} "
                f"drop_rate={self.drop_rate} seed={self.seed}>")


def place(
    policy: RoutingPolicy,
    admission: Optional[AdmissionControl],
    ordinal: int,
    depths: Sequence[int],
    seed: int,
) -> Tuple[int, int, bool]:
    """One routing step, shared by the live fleet and the virtual-time
    replay: choose a replica, then admit or shed the query.  Returns
    ``(replica, its entry of depths, admitted)``."""
    replica = policy.choose(ordinal, tuple(depths), seed=seed)
    if not 0 <= replica < len(depths):
        raise ConfigurationError(
            f"policy {policy.name!r} chose replica {replica} "
            f"outside the {len(depths)} active replicas"
        )
    depth = depths[replica]
    admitted = admission.admit(ordinal, depth) if admission is not None else True
    return replica, depth, admitted
