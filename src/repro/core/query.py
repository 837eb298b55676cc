"""Query taxonomy (paper Table 1) and the query/response data model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.asr.audio import Waveform
from repro.errors import QueryError
from repro.imm.image import Image


class QueryType(enum.Enum):
    """The three query classes of Table 1."""

    VOICE_COMMAND = "VC"
    VOICE_QUERY = "VQ"
    VOICE_IMAGE_QUERY = "VIQ"


@dataclass(frozen=True)
class IPAQuery:
    """One user query: speech audio, optionally accompanied by an image.

    ``text`` is the ground-truth transcript — carried for evaluation only;
    the pipeline never looks at it (recognition must come from the audio).
    """

    audio: Waveform
    image: Optional[Image] = None
    text: str = ""
    expected_type: Optional[QueryType] = None
    expected_answer: str = ""
    expected_image: str = ""

    def __post_init__(self) -> None:
        if len(self.audio) == 0:
            raise QueryError("query audio is empty")


@dataclass
class SiriusResponse:
    """What the pipeline returns to the mobile device (paper Figure 2)."""

    query_type: QueryType
    transcript: str
    action: str = ""              # VC: the command echoed back for execution
    answer: str = ""              # VQ/VIQ: best QA answer
    matched_image: str = ""       # VIQ: IMM's best database image
    service_seconds: Dict[str, float] = field(default_factory=dict)
    filter_hits: int = 0
    wall_seconds: float = 0.0  # end-to-end wall time (>= the sum: stages run in turn)
    #: True when any service failed and the response was served degraded
    #: (e.g. a VIQ answered without its image match) or not at all.
    degraded: bool = False
    #: Failing service label -> stable error code (``repro.errors``), e.g.
    #: ``{"IMM": "CIRCUIT_OPEN"}``.  Empty for a clean response.
    failures: Dict[str, str] = field(default_factory=dict)
    #: Finished :class:`repro.obs.trace.Span` tuple when the run was traced
    #: (loosely typed: the core layer does not import the obs package).
    spans: Tuple[Any, ...] = ()

    @property
    def failed(self) -> bool:
        """True when no usable answer exists: a *fatal* service (ASR or the
        classifier) failed — or the cluster router rejected the query at
        admission — as opposed to a degradable QA/IMM branch."""
        return any(
            label in self.failures for label in ("ASR", "CLASSIFY", "ROUTER")
        )

    @property
    def latency(self) -> float:
        if self.wall_seconds > 0:
            return self.wall_seconds
        return sum(self.service_seconds.values())

    def summary(self) -> str:
        """Human-readable one-liner for examples and logs."""
        parts = [f"[{self.query_type.value}] \"{self.transcript}\""]
        if self.action:
            parts.append(f"action={self.action!r}")
        if self.answer:
            parts.append(f"answer={self.answer!r}")
        if self.matched_image:
            parts.append(f"image={self.matched_image!r}")
        if self.failures:
            tags = ",".join(f"{k}:{v}" for k, v in sorted(self.failures.items()))
            parts.append(f"{'failed' if self.failed else 'degraded'}[{tags}]")
        parts.append(f"{self.latency * 1000:.1f} ms")
        return " ".join(parts)
