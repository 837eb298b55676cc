"""Fast-Hessian keypoint detector (SURF Feature Extraction).

Box-filter approximations of the second-order Gaussian derivatives are
evaluated through the integral image at a ladder of filter sizes
("Build Scale-Space" / "Calculate Hessian Matrix" in paper Figure 5); local
maxima of the Hessian determinant across (y, x, scale) that clear a
threshold become keypoints ("Find Keypoints").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ImageError
from repro.imm.image import Image
from repro.obs.counters import record_work
from repro.imm.integral import PaddedIntegral, box_sum, integral_image

#: Default filter-size ladder (pixels).  9 -> scale 1.2, SURF's base.
DEFAULT_FILTER_SIZES = (9, 15, 21, 27, 39, 51)


@dataclass(frozen=True)
class Keypoint:
    """A detected interest point."""

    y: float
    x: float
    scale: float       # SURF scale: 1.2 * filter_size / 9
    response: float    # Hessian determinant at the maximum
    sign: int          # sign of the Laplacian (light/dark blob), for matching


def hessian_response(ii: np.ndarray, filter_size: int) -> np.ndarray:
    """Hessian-determinant response map for one filter size.

    Uses the canonical SURF box layouts: three stacked lobes for Dyy/Dxx and
    four diagonal lobes for Dxy, weighted 1/-2/1 and +1/-1 respectively,
    normalized by the filter area.
    """
    return _response(PaddedIntegral(ii, _filter_reach(filter_size)), filter_size)


def _filter_reach(filter_size: int) -> int:
    """The padding a filter's widest box needs: it spans -border .. border + 1."""
    return filter_size // 2 + 1


def _response(padded: PaddedIntegral, filter_size: int) -> np.ndarray:
    if filter_size % 2 == 0 or filter_size < 9 or filter_size % 3 != 0:
        raise ImageError("filter size must be an odd multiple of 3, >= 9")
    box = padded.box_sum_map
    lobe = filter_size // 3
    border = filter_size // 2
    inverse_area = 1.0 / (filter_size * filter_size)

    # Dyy: full-height stack of three lobe-high boxes, width 2*lobe - 1.
    width = 2 * lobe - 1
    x_off = -(width // 2)
    dyy = (
        box(-border, x_off, filter_size, width)
        - 3.0 * box(-(lobe // 2), x_off, lobe, width)
    )
    # Dxx: transpose layout.
    dxx = (
        box(x_off, -border, width, filter_size)
        - 3.0 * box(x_off, -(lobe // 2), width, lobe)
    )
    # Dxy: four lobe x lobe boxes in the quadrants.
    dxy = (
        box(-lobe, 1, lobe, lobe)        # top-right (+)
        + box(1, -lobe, lobe, lobe)      # bottom-left (+)
        - box(-lobe, -lobe, lobe, lobe)  # top-left (-)
        - box(1, 1, lobe, lobe)          # bottom-right (-)
    )

    dxx *= inverse_area
    dyy *= inverse_area
    dxy *= inverse_area
    return dxx * dyy - (0.9 * dxy) ** 2


def laplacian_sign(ii: np.ndarray, y: int, x: int, filter_size: int) -> int:
    """Sign of Dxx + Dyy at one point (cheap single-box recomputation)."""
    lobe = filter_size // 3
    border = filter_size // 2
    width = 2 * lobe - 1
    x_off = -(width // 2)
    dyy = box_sum(ii, y - border, x + x_off, filter_size, width) - 3.0 * box_sum(
        ii, y - (lobe // 2), x + x_off, lobe, width
    )
    dxx = box_sum(ii, y + x_off, x - border, width, filter_size) - 3.0 * box_sum(
        ii, y + x_off, x - (lobe // 2), width, lobe
    )
    return 1 if dxx + dyy >= 0 else -1


class FastHessianDetector:
    """Multi-scale keypoint detector.

    Parameters
    ----------
    threshold:
        Minimum determinant response; lower finds more keypoints.
    filter_sizes:
        Ladder of box-filter sizes; consecutive triples form NMS octaves.
    max_keypoints:
        Keep only the strongest N (None keeps all).
    """

    def __init__(
        self,
        threshold: float = 1e-4,
        filter_sizes: Sequence[int] = DEFAULT_FILTER_SIZES,
        max_keypoints: Optional[int] = 200,
    ):
        if len(filter_sizes) < 3:
            raise ImageError("need at least three filter sizes for scale NMS")
        self.threshold = threshold
        self.filter_sizes = tuple(filter_sizes)
        self.max_keypoints = max_keypoints

    def detect(self, image: Image, ii: Optional[np.ndarray] = None) -> List[Keypoint]:
        """All keypoints of ``image``, strongest first."""
        ii = ii if ii is not None else integral_image(image.pixels)
        # One padded table serves every box of every scale; the largest
        # filter sets its pad, and it goes when this call returns.
        padded = PaddedIntegral(ii, _filter_reach(max(self.filter_sizes)))
        responses = np.stack(
            [_response(padded, size) for size in self.filter_sizes]
        )  # (n_scales, H, W)

        keypoints: List[Keypoint] = []
        n_scales, height, width = responses.shape
        # Counter model: each scale evaluates ~10 box sums per pixel at 4
        # adds each plus ~6 ops for the weighted determinant (~46/pixel),
        # and each interior scale runs 26 NMS comparisons per pixel; bytes
        # cover the integral-image reads per scale and the response stack
        # written then reread, float64.
        pixels = height * width
        record_work(
            flops=46 * n_scales * pixels + 26 * (n_scales - 2) * pixels,
            mem_bytes=8 * (n_scales * pixels + 2 * n_scales * pixels),
            items=pixels,
        )
        for scale_index in range(1, n_scales - 1):
            size = self.filter_sizes[scale_index]
            border = size // 2 + 1
            if height <= 2 * border or width <= 2 * border:
                continue
            # 3x3x3 non-maximum suppression on the interior only: within
            # ``border`` of an edge nothing is a candidate, and every
            # neighbour of an interior pixel is inside the map.
            center = responses[scale_index, border : height - border, border : width - border]
            candidate = center >= self.threshold
            for ds in (-1, 0, 1):
                plane = responses[scale_index + ds]
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if ds == 0 and dy == 0 and dx == 0:
                            continue
                        candidate &= center > plane[
                            border + dy : height - border + dy,
                            border + dx : width - border + dx,
                        ]
            ys, xs = np.nonzero(candidate)
            ys += border
            xs += border
            for y, x in zip(ys, xs):
                keypoints.append(
                    Keypoint(
                        y=float(y),
                        x=float(x),
                        scale=1.2 * size / 9.0,
                        response=float(responses[scale_index, y, x]),
                        sign=laplacian_sign(ii, int(y), int(x), size),
                    )
                )

        keypoints.sort(key=lambda kp: -kp.response)
        if self.max_keypoints is not None:
            keypoints = keypoints[: self.max_keypoints]
        return keypoints
