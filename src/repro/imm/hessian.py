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
from repro.imm.integral import PaddedIntegral, integral_image

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


def _filter_reach(filter_size: int) -> int:
    """The padding a filter's widest box needs: it spans -border .. border + 1."""
    return filter_size // 2 + 1


def _hessian_maps(padded: PaddedIntegral, filter_size: int, out: np.ndarray) -> np.ndarray:
    """Hessian-determinant response and Laplacian trace runs for one filter size.

    Uses the canonical SURF box layouts: three stacked lobes for Dyy/Dxx and
    four diagonal lobes for Dxy, weighted 1/-2/1 and +1/-1 respectively.  The
    response is normalized by the filter area; the trace ``Dxx + Dyy`` is
    not, so its sign is that of the unscaled box sums.  Fills and returns
    ``out`` (2, cells): response, trace.
    """
    box = padded.box_sums
    lobe = filter_size // 3
    border = filter_size // 2
    inverse_area = 1.0 / (filter_size * filter_size)
    dxx, dyy, dxy, term = np.empty((4, padded.cells))
    response, trace = out

    # Dyy: full-height stack of three lobe-high boxes, width 2*lobe - 1.
    width = 2 * lobe - 1
    x_off = -(width // 2)
    box(-border, x_off, filter_size, width, dyy)
    dyy -= np.multiply(box(-(lobe // 2), x_off, lobe, width, term), 3.0, out=term)
    # Dxx: transpose layout.
    box(x_off, -border, width, filter_size, dxx)
    dxx -= np.multiply(box(x_off, -(lobe // 2), width, lobe, term), 3.0, out=term)
    # Dxy: four lobe x lobe boxes in the quadrants.
    box(-lobe, 1, lobe, lobe, dxy)           # top-right (+)
    dxy += box(1, -lobe, lobe, lobe, term)   # bottom-left (+)
    dxy -= box(-lobe, -lobe, lobe, lobe, term)  # top-left (-)
    dxy -= box(1, 1, lobe, lobe, term)       # bottom-right (-)

    np.add(dxx, dyy, out=trace)
    dxx *= inverse_area
    dyy *= inverse_area
    dxy *= inverse_area
    np.multiply(dxx, dyy, out=response)
    dxy *= 0.9
    response -= np.square(dxy, out=dxy)
    return out


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
        sizes = tuple(filter_sizes)
        if len(sizes) < 3:
            raise ImageError("need at least three filter sizes for scale NMS")
        if any(size % 2 == 0 or size < 9 or size % 3 != 0 for size in sizes):
            raise ImageError("filter size must be an odd multiple of 3, >= 9")
        if any(lower >= upper for lower, upper in zip(sizes, sizes[1:])):
            raise ImageError("filter sizes must be strictly ascending for scale NMS")
        if max_keypoints is not None and max_keypoints < 0:
            raise ImageError("max_keypoints must be None or >= 0")
        self.threshold = threshold
        self.filter_sizes = sizes
        self.max_keypoints = max_keypoints

    def detect(self, image: Image, ii: Optional[np.ndarray] = None) -> List[Keypoint]:
        """All keypoints of ``image``, strongest first."""
        ii = ii if ii is not None else integral_image(image.pixels)
        # One padded table serves every box of every scale; the largest
        # filter sets its pad, and it goes when this call returns.
        padded = PaddedIntegral(ii, _filter_reach(self.filter_sizes[-1]))
        n_scales = len(self.filter_sizes)
        responses, traces = maps = np.empty((2, n_scales, padded.cells))
        for scale_index, size in enumerate(self.filter_sizes):
            _hessian_maps(padded, size, maps[:, scale_index])

        height, width, stride = padded.height, padded.width, padded.stride
        # Counter model: the dense Table 4 demand, not what the pass below
        # executes (its NMS compares only threshold survivors).  Each scale
        # evaluates ~10 box sums per pixel at 4 adds each plus ~6 ops for the
        # weighted determinant (~46/pixel), and each interior scale runs 26
        # NMS comparisons per pixel; bytes cover the integral-image reads per
        # scale and the response stack written then reread, float64.
        pixels = height * width
        record_work(
            flops=46 * n_scales * pixels + 26 * (n_scales - 2) * pixels,
            mem_bytes=8 * (n_scales * pixels + 2 * n_scales * pixels),
            items=pixels,
        )
        # 3x3x3 non-maximum suppression on the interior only: within
        # ``border`` of an edge nothing is a candidate, and every neighbour
        # of an interior pixel is inside the map.  Threshold first, then
        # test the survivors against their 26 neighbours at flat offsets of
        # the (n_scales, height, stride) stack, in row-major order.
        found = []
        for scale_index in range(1, n_scales - 1):
            border = self.filter_sizes[scale_index] // 2 + 1
            if height <= 2 * border or width <= 2 * border:
                continue
            rows = responses[scale_index, border * stride : (height - border) * stride]
            candidate = (rows >= self.threshold).reshape(-1, stride)
            candidate[:, :border] = False
            candidate[:, width - border :] = False
            found.append(np.flatnonzero(candidate) + (scale_index * height + border) * stride)
        index = np.concatenate(found) if found else np.zeros(0, dtype=np.intp)
        stack = responses.ravel()
        center = stack[index]
        for offset in _neighbour_offsets(padded.cells, stride):
            keep = center > stack[index + offset]
            index, center = index[keep], center[keep]

        # Strongest first; the stable sort keeps ties in (scale, y, x) order.
        order = np.argsort(-center, kind="stable")[: self.max_keypoints]
        index, center = index[order], center[order]
        scales, cell = np.divmod(index, padded.cells)
        ys, xs = np.divmod(cell, stride)
        signs = np.where(traces.ravel()[index] >= 0, 1, -1)
        return [
            Keypoint(
                y=float(y),
                x=float(x),
                scale=1.2 * self.filter_sizes[s] / 9.0,
                response=response,
                sign=sign,
            )
            for y, x, s, response, sign in zip(
                ys.tolist(), xs.tolist(), scales.tolist(), center.tolist(), signs.tolist()
            )
        ]


def _neighbour_offsets(cells: int, stride: int) -> List[int]:
    """Flat offsets of the 26 neighbours in a (scale, y, x) stack, in-plane
    first: those reject most candidates, so later compares gather fewer."""
    return [
        ds * cells + dy * stride + dx
        for ds in (0, -1, 1)
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (ds, dy, dx) != (0, 0, 0)
    ]
