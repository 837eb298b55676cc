"""IPC and architectural-bottleneck model (paper Figure 10).

The paper profiles each hot component with VTune's top-down method: cycles
split into retiring (useful), front-end stalls, bad speculation, and
back-end stalls, with measured IPC.  Python has no PMU access, so this is a
documented analytical model: per-kernel stall fractions chosen from each
kernel's computational character (branchy string code front-end/speculation
bound, dense linear algebra back-end/memory bound), calibrated so the
paper's two headline observations hold — DNN and Regex run efficiently
(high IPC), and removing *all* stalls buys at most ≈3x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError

#: Issue width of the modeled Haswell core: IPC = 4 x retiring fraction.
ISSUE_WIDTH = 4.0


@dataclass(frozen=True)
class CycleAccount:
    """Top-down cycle taxonomy for one kernel (fractions sum to 1)."""

    kernel: str
    retiring: float
    front_end: float
    speculation: float
    back_end: float

    def __post_init__(self) -> None:
        total = self.retiring + self.front_end + self.speculation + self.back_end
        if not 0.99 <= total <= 1.01:
            raise ConfigurationError(f"{self.kernel}: fractions sum to {total}")
        for name, value in (
            ("retiring", self.retiring),
            ("front_end", self.front_end),
            ("speculation", self.speculation),
            ("back_end", self.back_end),
        ):
            if not 0 <= value <= 1:
                raise ConfigurationError(f"{self.kernel}: bad {name}={value}")

    @property
    def ipc(self) -> float:
        """Modeled instructions per cycle."""
        return ISSUE_WIDTH * self.retiring

    @property
    def stall_free_speedup(self) -> float:
        """Speedup if every stall cycle were removed (perfect core)."""
        return 1.0 / self.retiring


#: The model's per-kernel accounts.  Branch-heavy string kernels lose cycles
#: to speculation and the front end; dense numeric kernels to the back end
#: (memory);  DNN and Regex retire the most — as Figure 10 reports.
CYCLE_ACCOUNTS: Dict[str, CycleAccount] = {
    "gmm":     CycleAccount("gmm",     retiring=0.42, front_end=0.08, speculation=0.05, back_end=0.45),
    "dnn":     CycleAccount("dnn",     retiring=0.65, front_end=0.05, speculation=0.03, back_end=0.27),
    "stemmer": CycleAccount("stemmer", retiring=0.35, front_end=0.25, speculation=0.25, back_end=0.15),
    "regex":   CycleAccount("regex",   retiring=0.60, front_end=0.15, speculation=0.15, back_end=0.10),
    "crf":     CycleAccount("crf",     retiring=0.40, front_end=0.15, speculation=0.10, back_end=0.35),
    "fe":      CycleAccount("fe",      retiring=0.45, front_end=0.10, speculation=0.08, back_end=0.37),
    "fd":      CycleAccount("fd",      retiring=0.50, front_end=0.08, speculation=0.07, back_end=0.35),
}


def ipc_table() -> Dict[str, float]:
    return {name: acc.ipc for name, acc in CYCLE_ACCOUNTS.items()}


def max_stall_free_speedup() -> float:
    """The Figure 10 headline: the best possible stall-elimination speedup.

    "even with all stall cycles removed ... the maximum speed-up is bound by
    around 3x" — i.e. general-purpose cores cannot close the scalability
    gap, motivating accelerators.
    """
    return max(acc.stall_free_speedup for acc in CYCLE_ACCOUNTS.values())


def bottleneck_rows() -> List[CycleAccount]:
    """All accounts, Table 4 kernel order."""
    return [CYCLE_ACCOUNTS[name] for name in
            ("gmm", "dnn", "stemmer", "regex", "crf", "fe", "fd")]
