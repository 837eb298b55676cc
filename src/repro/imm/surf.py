"""SURF facade: detect + describe in one call (FE + FD stages)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.imm.descriptor import DESCRIPTOR_SIZE, describe_keypoints
from repro.imm.hessian import FastHessianDetector, Keypoint
from repro.imm.image import Image
from repro.imm.integral import integral_image
from repro.obs.context import section


@dataclass(frozen=True)
class SurfFeatures:
    """Extraction output: keypoints plus their (N, 64) descriptors."""

    keypoints: Tuple[Keypoint, ...]
    descriptors: np.ndarray

    def __len__(self) -> int:
        return len(self.keypoints)


class Surf:
    """The full SURF pipeline, FE and FD timed as sections.

    ``upright=True`` selects U-SURF (no orientation assignment) — faster and
    adequate when queries are not rotated, which matches our synthetic
    perturbations; the oriented path is exercised by tests and benches.
    """

    def __init__(
        self,
        detector: Optional[FastHessianDetector] = None,
        upright: bool = True,
    ):
        self.detector = detector if detector is not None else FastHessianDetector()
        self.upright = upright

    def extract_keypoints(self, image: Image, ii: Optional[np.ndarray] = None) -> List[Keypoint]:
        """Feature Extraction (FE): keypoints only."""
        return self.detector.detect(image, ii=ii)

    def describe(
        self,
        image: Image,
        keypoints: List[Keypoint],
        ii: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Feature Description (FD): descriptors for given keypoints."""
        return describe_keypoints(image, keypoints, ii=ii, upright=self.upright)

    def extract(self, image: Image) -> SurfFeatures:
        """FE + FD, in sections ``imm.fe`` / ``imm.fd``."""
        ii = integral_image(image.pixels)
        with section("imm.fe"):
            keypoints = self.extract_keypoints(image, ii=ii)
        with section("imm.fd"):
            descriptors = self.describe(image, keypoints, ii=ii)
        return SurfFeatures(tuple(keypoints), descriptors)
