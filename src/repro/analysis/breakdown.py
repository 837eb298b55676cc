"""Cycle-breakdown analysis (paper Figure 9) from measured section times.

Runs the real pipeline over the input set under a tracer, pools the
per-component ``section`` span times
(:func:`repro.obs.critical_path.section_seconds`), and reports each
service's breakdown.  The paper's claims to check: GMM/DNN scoring
dominates ASR, stemmer+regex+CRF ≈ 85% of QA, FE/FD dominate IMM, and the
seven kernels together cover ≈ 92% of all cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

#: Sections belonging to each service, and which are "kernels".
SERVICE_SECTIONS: Dict[str, List[str]] = {
    "ASR": ["asr.features", "asr.scoring", "asr.search", "asr"],
    "QA": ["qa.analyze", "qa.search", "qa.stemmer", "qa.regex", "qa.crf",
           "qa.aggregate", "qa.filters", "qa"],
    "IMM": ["imm.fe", "imm.fd", "imm.ann", "imm"],
}

#: Sections that correspond to Sirius Suite kernels (Table 4).
KERNEL_SECTIONS = frozenset(
    ["asr.scoring", "qa.stemmer", "qa.regex", "qa.crf", "imm.fe", "imm.fd"]
)


@dataclass
class ServiceBreakdown:
    """Fractions of one service's time per component."""

    service: str
    seconds: Dict[str, float] = field(default_factory=dict, init=False)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def fraction(self, section: str) -> float:
        total = self.total
        return self.seconds.get(section, 0.0) / total if total > 0 else 0.0

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {}
        return {
            name: value / total
            for name, value in sorted(self.seconds.items(), key=lambda kv: -kv[1])
        }

    def kernel_fraction(self) -> float:
        """Share of this service's time inside Sirius Suite kernels."""
        return kernel_coverage(self.seconds)


def split_by_service(seconds: Mapping[str, float]) -> Dict[str, ServiceBreakdown]:
    """Group pooled section seconds into per-service breakdowns."""
    breakdowns: Dict[str, ServiceBreakdown] = {
        service: ServiceBreakdown(service) for service in SERVICE_SECTIONS
    }
    for section, value in seconds.items():
        for service, sections in SERVICE_SECTIONS.items():
            if section in sections:
                breakdowns[service].seconds[section] = value
                break
    return breakdowns


def kernel_coverage(seconds: Mapping[str, float]) -> float:
    """Fraction of all sectioned time spent in Sirius Suite kernels.

    The paper extracts kernels covering 92% of cycles; our pipeline should
    land in the same regime (most time in scoring/NLP/vision kernels).
    """
    total = sum(seconds.values())
    if total <= 0:
        return 0.0
    in_kernels = sum(
        value for section, value in seconds.items() if section in KERNEL_SECTIONS
    )
    return in_kernels / total


def measured_service_fractions(
    seconds: Mapping[str, float],
) -> Dict[str, Dict[str, float]]:
    """Convert measured section seconds into `repro.platforms.speedups` fractions.

    Maps sections onto the accelerator model's component names so a
    measured breakdown can replace DEFAULT_FRACTIONS (an ablation the
    benchmarks exercise).  Components outside the kernel set fold into the
    nearest modeled component.
    """
    breakdowns = split_by_service(seconds)

    def normalized(parts: Mapping[str, float]) -> Dict[str, float]:
        total = sum(parts.values())
        if total <= 0:
            return {}
        return {name: value / total for name, value in parts.items()}

    asr = breakdowns["ASR"].seconds
    qa = breakdowns["QA"].seconds
    imm = breakdowns["IMM"].seconds
    scoring = asr.get("asr.scoring", 0.0)
    search = asr.get("asr.search", 0.0) + asr.get("asr.features", 0.0) + asr.get("asr", 0.0)
    asr_fracs = normalized({"gmm": scoring, "hmm": search})
    qa_fracs = normalized(
        {
            "stemmer": qa.get("qa.stemmer", 0.0) + qa.get("qa.analyze", 0.0),
            "regex": qa.get("qa.regex", 0.0),
            "crf": qa.get("qa.crf", 0.0)
            + qa.get("qa.aggregate", 0.0)
            + qa.get("qa.search", 0.0)
            + qa.get("qa.filters", 0.0)
            + qa.get("qa", 0.0),
        }
    )
    imm_fracs = normalized(
        {
            "fe": imm.get("imm.fe", 0.0),
            "fd": imm.get("imm.fd", 0.0)
            + imm.get("imm.ann", 0.0)
            + imm.get("imm", 0.0),
        }
    )
    fractions: Dict[str, Dict[str, float]] = {}
    if asr_fracs:
        fractions["ASR (GMM)"] = dict(asr_fracs)
        fractions["ASR (DNN)"] = {"dnn": asr_fracs["gmm"], "hmm": asr_fracs["hmm"]}
    if qa_fracs:
        fractions["QA"] = qa_fracs
    if imm_fracs:
        fractions["IMM"] = imm_fracs
    return fractions
