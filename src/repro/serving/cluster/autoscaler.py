"""SLO-driven autoscaling: deterministic replica-count decisions.

The warehouse-scale question the paper's Section 7 asks — how many
machines does an IPA service need? — is at serving time an *autoscaling*
question: watch the tail, add replicas when the SLO is threatened, reclaim
them when the fleet is over-provisioned.  This module supplies the policy
half; the replay driver (:mod:`repro.serving.cluster.replay`) feeds it a
measured p99 from the ``serve.*`` histograms once per simulated tick and
applies its decisions.

**Determinism.**  A decision is a pure function of
``(seed, tick, p99, n_replicas)``:

- scale **up** whenever the observed p99 exceeds the SLO — always, no
  randomness, because reacting late to an SLO breach is the one
  unforgivable autoscaler sin;
- scale **down** only when p99 has dropped below ``HYSTERESIS * slo`` (the
  classic dead-band that prevents flapping at the threshold) *and* a
  seeded per-tick coin agrees — the coin models the lazy, conservative
  downscaling real autoscalers use (scale-in is cheap to defer, expensive
  to regret), while keeping every run replayable.

Decisions carry a human-readable ``reason`` so replay reports can show
*why* the fleet grew at tick 17.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Decision kinds.
SCALE_UP = "scale-up"
SCALE_DOWN = "scale-down"
HOLD = "hold"

#: The fleet never scales in below one replica.
MIN_REPLICAS = 1
#: Scale-in dead-band: p99 must fall below this fraction of the SLO.
HYSTERESIS = 0.8
#: Chance the seeded coin lets an allowed scale-in happen.
DOWN_PROBABILITY = 0.5


@dataclass(frozen=True)
class ScaleDecision:
    """One autoscaler evaluation: what to do and why."""

    tick: int
    action: str          #: SCALE_UP | SCALE_DOWN | HOLD
    n_replicas: int      #: replica count after applying the decision
    p99: float           #: the observed p99 the decision was based on
    reason: str


class AutoscalerPolicy:
    """Target-tail autoscaling with hysteresis and seeded lazy scale-in.

    ``slo_p99`` is the latency target in seconds and the fleet stays within
    ``[MIN_REPLICAS, max_replicas]``.  One tick adds or removes at most one
    replica (step scaling, not target-tracking — deliberate, so a single
    noisy tick cannot double the fleet).  ``HYSTERESIS`` sets the scale-in
    dead-band; ``DOWN_PROBABILITY`` is the seeded coin's chance of
    *actually* scaling in once the dead-band allows it.
    """

    def __init__(self, slo_p99: float, max_replicas: int = 8):
        if slo_p99 <= 0:
            raise ConfigurationError("slo_p99 must be > 0")
        if max_replicas < MIN_REPLICAS:
            raise ConfigurationError("need max_replicas >= 1")
        self.slo_p99 = slo_p99
        self.min_replicas = MIN_REPLICAS
        self.max_replicas = max_replicas

    def decide(
        self, tick: int, p99: float, n_replicas: int, seed: int = 0
    ) -> ScaleDecision:
        """Evaluate one tick; pure in ``(seed, tick, p99, n_replicas)``."""
        if n_replicas < 1:
            raise ConfigurationError("n_replicas must be >= 1")
        if p99 > self.slo_p99:
            target = min(n_replicas + 1, self.max_replicas)
            if target > n_replicas:
                return ScaleDecision(
                    tick=tick, action=SCALE_UP, n_replicas=target, p99=p99,
                    reason=(
                        f"p99 {p99 * 1000:.1f}ms > SLO "
                        f"{self.slo_p99 * 1000:.1f}ms: "
                        f"{n_replicas} -> {target} replicas"
                    ),
                )
            return ScaleDecision(
                tick=tick, action=HOLD, n_replicas=n_replicas, p99=p99,
                reason=(
                    f"p99 {p99 * 1000:.1f}ms over SLO but already at "
                    f"max_replicas={self.max_replicas}"
                ),
            )
        floor = HYSTERESIS * self.slo_p99
        if p99 < floor and n_replicas > self.min_replicas:
            coin = random.Random(f"{seed}:{tick}:scale")
            if coin.random() < DOWN_PROBABILITY:
                target = max(n_replicas - 1, self.min_replicas)
                return ScaleDecision(
                    tick=tick, action=SCALE_DOWN, n_replicas=target, p99=p99,
                    reason=(
                        f"p99 {p99 * 1000:.1f}ms < {HYSTERESIS:.0%} of "
                        f"SLO: {n_replicas} -> {target} replicas"
                    ),
                )
            return ScaleDecision(
                tick=tick, action=HOLD, n_replicas=n_replicas, p99=p99,
                reason="under scale-in floor but lazy coin deferred",
            )
        return ScaleDecision(
            tick=tick, action=HOLD, n_replicas=n_replicas, p99=p99,
            reason="p99 within the SLO dead-band",
        )

    def __repr__(self) -> str:
        return (
            f"<AutoscalerPolicy slo_p99={self.slo_p99} "
            f"replicas=[{self.min_replicas},{self.max_replicas}]>"
        )
