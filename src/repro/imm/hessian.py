"""Fast-Hessian keypoint detector (SURF Feature Extraction).

Box-filter approximations of the second-order Gaussian derivatives are
evaluated through the integral image at a ladder of filter sizes
("Build Scale-Space" / "Calculate Hessian Matrix" in paper Figure 5); local
maxima of the Hessian determinant across (y, x, scale) that clear a
threshold become keypoints ("Find Keypoints").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ImageError
from repro.imm.image import Image
from repro.obs.counters import record_work
from repro.imm.integral import PaddedIntegral, integral_image

#: The box-filter ladder (pixels): odd multiples of 3 from 9 up, strictly
#: ascending, so consecutive triples form the scale-NMS octaves.  9 -> scale
#: 1.2, SURF's base.
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


def _hessian(filter_size: int, box, quadrant, out: np.ndarray) -> np.ndarray:
    """Hessian-determinant response and Laplacian trace from box sums.

    Uses the canonical SURF box layouts: three stacked lobes for Dyy/Dxx and
    four diagonal lobes for Dxy, weighted 1/-2/1 and +1/-1 respectively.  The
    response is normalized by the filter area; the trace ``Dxx + Dyy`` is
    not, so its sign is that of the unscaled box sums.  ``box(dy, dx,
    height, width, into)`` writes one box's sums, ``quadrant(dy, dx)``
    returns the lobe x lobe box's at that offset.  Fills and returns ``out``
    (2, n): response, trace.
    """
    lobe = filter_size // 3
    border = filter_size // 2
    inverse_area = 1.0 / (filter_size * filter_size)
    dxx, dyy, dxy, term = np.empty((4, out.shape[1]))
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
    np.add(quadrant(-lobe, 1), quadrant(1, -lobe), out=dxy)  # top-right + bottom-left
    dxy -= quadrant(-lobe, -lobe)  # top-left
    dxy -= quadrant(1, 1)  # bottom-right

    np.add(dxx, dyy, out=trace)
    dxx *= inverse_area
    dyy *= inverse_area
    dxy *= inverse_area
    np.multiply(dxx, dyy, out=response)
    dxy *= 0.9
    response -= np.square(dxy, out=dxy)
    return out


def _hessian_maps(
    padded: PaddedIntegral, filter_size: int, out: np.ndarray, start: int = 0
) -> np.ndarray:
    """Response and trace runs of one filter size over cells ``start ..
    start + n``, ``out`` being (2, n); ``start`` 0 and ``n = padded.cells``
    is the whole image.

    The four Dxy quadrants are one lobe x lobe box read at four shifts: the
    box at offset (dy, dx) of cell c is cell ``c + dy * stride + dx`` of the
    box's run at offset (0, 0), the same four table reads.
    """
    count, stride, lobe = out.shape[1], padded.stride, filter_size // 3
    first = start - lobe * (stride + 1)
    lobes = padded.box_sums(0, 0, lobe, lobe, np.empty(count + (lobe + 1) * (stride + 1)), first)

    def box(dy, dx, height, width, into):
        return padded.box_sums(dy, dx, height, width, into, start)

    def quadrant(dy, dx):
        offset = start - first + dy * stride + dx
        return lobes[offset : offset + count]

    return _hessian(filter_size, box, quadrant, out)


def _response_at(padded: PaddedIntegral, filter_size: int, cells: np.ndarray) -> np.ndarray:
    """One filter size's response at the given in-image cells only."""
    lobe = filter_size // 3

    def box(dy, dx, height, width, into):
        return padded.box_sums_at(dy, dx, height, width, into, cells)

    def quadrant(dy, dx):
        return box(dy, dx, lobe, lobe, np.empty(len(cells)))

    return _hessian(filter_size, box, quadrant, np.empty((2, len(cells))))[0]


def _centre_rows(
    filter_sizes: Sequence[int], height: int, width: int
) -> List[Tuple[int, int]]:
    """The (first, last) rows of each centre scale's maps that ``detect`` reads.

    Centres are the interior scales whose NMS window is not empty; borders
    grow along the ladder, so they are scales 1 .. m.  Centre s thresholds
    rows ``border .. height - border`` and its NMS reads one row more on
    each side, which also covers centre s + 1's reads; centre s - 1's
    reads reach one row past its own, wider, window.
    """
    borders = [size // 2 + 1 for size in filter_sizes[1:-1]]
    borders = [border for border in borders if height > 2 * border and width > 2 * border]
    return [(border - 1, height - border + 1) for border in borders[:1] + borders[:-1]]


class FastHessianDetector:
    """Multi-scale keypoint detector over the ``DEFAULT_FILTER_SIZES`` ladder.

    Parameters
    ----------
    threshold:
        Minimum determinant response, finite and >= 0 (a negative one
        would admit saddle points); lower finds more keypoints.
    max_keypoints:
        Keep only the strongest N (None keeps all).
    """

    def __init__(
        self,
        threshold: float = 1e-4,
        max_keypoints: Optional[int] = 200,
    ):
        if max_keypoints is not None and max_keypoints < 0:
            raise ImageError("max_keypoints must be None or >= 0")
        if not 0.0 <= threshold < math.inf:
            raise ImageError("threshold must be finite and >= 0")
        self.threshold = threshold
        self.filter_sizes = DEFAULT_FILTER_SIZES
        self.max_keypoints = max_keypoints

    def detect(self, image: Image, ii: Optional[np.ndarray] = None) -> List[Keypoint]:
        """All keypoints of ``image``, strongest first."""
        ii = ii if ii is not None else integral_image(image.pixels)
        # One padded table serves every box of every scale; the largest
        # filter sets its pad, and it goes when this call returns.
        padded = PaddedIntegral(ii, _filter_reach(self.filter_sizes[-1]))
        n_scales = len(self.filter_sizes)
        height, width, stride, cells = padded.height, padded.width, padded.stride, padded.cells
        # Counter model: the dense Table 4 demand, not what the pass below
        # executes (it fills only the rows the NMS reads and compares only
        # threshold survivors).  Each scale evaluates ~10 box sums per pixel
        # at 4 adds each plus ~6 ops for the weighted determinant
        # (~46/pixel), and each interior scale runs 26 NMS comparisons per
        # pixel; bytes cover the integral-image reads per scale and the
        # response stack written then reread, float64.
        pixels = height * width
        record_work(
            flops=46 * n_scales * pixels + 26 * (n_scales - 2) * pixels,
            mem_bytes=8 * (n_scales * pixels + 2 * n_scales * pixels),
            items=pixels,
        )
        rows = _centre_rows(self.filter_sizes, height, width)
        if not rows:
            return []
        # The stack holds scales 0 .. m + 1 for centres 1 .. m.  A centre's
        # maps are filled on the rows read; the two outer scales stay -inf,
        # which every candidate beats, until evaluated around the survivors.
        responses, traces = maps = np.empty((2, len(rows) + 2, cells))
        for scale_index, (first, last) in enumerate(rows, 1):
            run = maps[:, scale_index, first * stride : last * stride]
            _hessian_maps(padded, self.filter_sizes[scale_index], run, first * stride)
        responses[0] = responses[-1] = -np.inf

        # 3x3x3 non-maximum suppression on the interior only: within
        # ``border`` of an edge nothing is a candidate, and every neighbour
        # of an interior pixel is inside the map.  Threshold first, then
        # test the survivors against their 26 neighbours at flat offsets of
        # the (scale, height, stride) stack, in row-major order.
        found = []
        for scale_index in range(1, len(rows) + 1):
            border = self.filter_sizes[scale_index] // 2 + 1
            plane = responses[scale_index, border * stride : (height - border) * stride]
            candidate = (plane >= self.threshold).reshape(-1, stride)
            candidate[:, :border] = False
            candidate[:, width - border :] = False
            found.append(np.flatnonzero(candidate) + (scale_index * height + border) * stride)
        index = np.concatenate(found)
        stack = responses.ravel()
        center = stack[index]
        for offset in _neighbour_offsets(cells, stride):
            keep = center > stack[index + offset]
            index, center = index[keep], center[keep]
        # Then each outer scale, at the 3x3 neighbourhoods of the survivors
        # beside it.  Each compare is a predicate on fixed floats, so their
        # order changes how many points are evaluated, not who survives.
        plane_offsets = np.array([dy * stride + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
        for outer, beside in ((0, 1), (len(rows) + 1, len(rows))):
            near = index // cells == beside
            points = (index[near] - beside * cells)[:, None] + plane_offsets
            neighbours = _response_at(padded, self.filter_sizes[outer], points.ravel())
            keep = ~near
            keep[near] = (center[near, None] > neighbours.reshape(-1, 9)).all(axis=1)
            index, center = index[keep], center[keep]

        # Strongest first; the stable sort keeps ties in (scale, y, x) order.
        order = np.argsort(-center, kind="stable")[: self.max_keypoints]
        index, center = index[order], center[order]
        scales, cell = np.divmod(index, cells)
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
