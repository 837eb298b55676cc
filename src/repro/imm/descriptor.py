"""SURF feature description: orientation assignment + 64-d descriptors.

Implements the paper's Feature Description stage (Figure 5, right box): Haar
wavelet responses around each keypoint vote for a dominant orientation; a
4x4 grid of subregions, sampled in the rotated frame, each contributes
(sum dx, sum |dx|, sum dy, sum |dy|) for a 64-dimensional vector, normalized
to unit length.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from repro.imm.hessian import Keypoint
from repro.imm.image import Image
from repro.imm.integral import integral_image
from repro.obs.counters import record_work

DESCRIPTOR_SIZE = 64


#: Orientation samples: the 113 grid offsets within radius 6, row-major,
#: and their Gaussian (sigma 2.5) weights.  ``math.exp`` rather than
#: ``np.exp``: numpy's SIMD transcendentals may differ from libm by an ulp.
_CIRCLE = [(dy, dx) for dy in range(-6, 7) for dx in range(-6, 7) if dy * dy + dx * dx <= 36]
_CIRCLE_DY = np.array([dy for dy, _ in _CIRCLE])
_CIRCLE_DX = np.array([dx for _, dx in _CIRCLE])
_CIRCLE_GAUSS = np.array([math.exp(-(dy * dy + dx * dx) / (2 * 2.5**2)) for dy, dx in _CIRCLE])

#: Where the pi/3 orientation sector starts as it slides round in 10-degree steps.
_SECTOR_STARTS = np.arange(-math.pi, math.pi, math.pi / 18)

#: Descriptor samples: a 20x20 grid (4x4 subregions of 5x5) in units of scale.
_GRID = np.arange(-10, 10)


def _integer_scale(keypoint: Keypoint) -> int:
    return max(int(round(keypoint.scale)), 1)


def _haar(ii: np.ndarray, y: np.ndarray, x: np.ndarray, half: np.ndarray):
    """(haar_x, haar_y) wavelets of side ``2 * half`` at integer points (y, x).

    haar_x is the right half minus the left half of the box, haar_y the lower
    half minus the upper; each half is a clipped box sum, so together they
    read the integral image at eight of the nine points of a 3x3 lattice.
    """
    stride = ii.shape[1]
    max_y = ii.shape[0] - 1
    max_x = stride - 1
    # Rows as flat offsets: one 1-D gather per point reads what ``ii[row,
    # col]`` would, at under half the cost of 2-D fancy indexing.
    flat = ii.ravel()
    top = np.clip(y - half, 0, max_y) * stride
    middle = np.clip(y, 0, max_y) * stride
    bottom = np.clip(y + half, 0, max_y) * stride
    left = np.clip(x - half, 0, max_x)
    center = np.clip(x, 0, max_x)
    right = np.clip(x + half, 0, max_x)
    top_left, top_center, top_right = flat[top + left], flat[top + center], flat[top + right]
    middle_left, middle_right = flat[middle + left], flat[middle + right]
    bottom_left, bottom_center, bottom_right = (
        flat[bottom + left], flat[bottom + center], flat[bottom + right]
    )
    # Each box keeps box_sum's operation order: ii[y1,x1] - ii[y0,x1] - ii[y1,x0] + ii[y0,x0].
    haar_x = (bottom_right - top_right - bottom_center + top_center) - (
        bottom_center - top_center - bottom_left + top_left
    )
    haar_y = (bottom_right - middle_right - bottom_left + middle_left) - (
        middle_right - top_right - middle_left + top_left
    )
    return haar_x, haar_y


def _dominant_angle(angles: np.ndarray, rx: np.ndarray, ry: np.ndarray) -> float:
    """The pi/3 sector, slid in 10-degree steps, with the largest summed vector."""
    best_magnitude = -1.0
    best_angle = 0.0
    for start in _SECTOR_STARTS:
        in_window = (angles >= start) & (angles < start + math.pi / 3)
        if not in_window.any():
            continue
        sum_x = rx[in_window].sum()
        sum_y = ry[in_window].sum()
        magnitude = sum_x * sum_x + sum_y * sum_y
        if magnitude > best_magnitude:
            best_magnitude = magnitude
            best_angle = math.atan2(sum_y, sum_x)
    return best_angle


def assign_orientations(ii: np.ndarray, keypoints: Sequence[Keypoint]) -> List[float]:
    """Dominant orientation of each keypoint, in radians.

    Haar responses at radius <= 6s, Gaussian-weighted, are gathered for all
    keypoints at once; each keypoint's responses then vote in a sector that
    slides around the circle, and the sector with the largest summed vector
    wins.
    """
    scale = np.array([_integer_scale(kp) for kp in keypoints])[:, None]
    cy = np.array([int(round(kp.y)) for kp in keypoints])[:, None]
    cx = np.array([int(round(kp.x)) for kp in keypoints])[:, None]
    haar_x, haar_y = _haar(ii, cy + _CIRCLE_DY * scale, cx + _CIRCLE_DX * scale, 2 * scale)
    all_rx = _CIRCLE_GAUSS * haar_x
    all_ry = _CIRCLE_GAUSS * haar_y
    orientations = []
    for rx, ry in zip(all_rx, all_ry):
        responding = (rx != 0.0) | (ry != 0.0)
        rx, ry = rx[responding], ry[responding]
        if rx.size == 0:
            orientations.append(0.0)
            continue
        angles = np.array([math.atan2(b, a) for a, b in zip(rx.tolist(), ry.tolist())])
        orientations.append(_dominant_angle(angles, rx, ry))
    return orientations


def assign_orientation(ii: np.ndarray, keypoint: Keypoint) -> float:
    """Dominant orientation of one keypoint via a sliding pi/3 sector."""
    return assign_orientations(ii, [keypoint])[0]


@lru_cache(maxsize=32)
def _gaussian_window(scale: int) -> np.ndarray:
    """(20, 20) descriptor weights at one integer scale, sigma 3.3 * scale.

    The weights depend on nothing but the scale, and a detector ladder has a
    handful of scales, so the table is computed once each — by ``math.exp``,
    for the same reason as ``_CIRCLE_GAUSS``.
    """
    offsets = [k * scale for k in _GRID.tolist()]
    window = np.array(
        [
            [math.exp(-(u * u + v * v) / (2 * (3.3 * scale) ** 2)) for u in offsets]
            for v in offsets
        ]
    )
    window.setflags(write=False)
    return window


def _describe(
    ii: np.ndarray, keypoints: Sequence[Keypoint], orientations: Optional[Sequence[float]]
) -> np.ndarray:
    """(N, 64) descriptors of ``keypoints`` at the given orientations.

    All N x 20 x 20 samples are taken at once; axes are (keypoint, v, u)
    with u along the keypoint's orientation and v across it.  ``None``
    orientations are U-SURF's: the frame is the image's, and nothing is
    rotated.  That is bit-equal to orientation 0, where the rotation only
    adds signed zeros to the offsets and to the responses, and the sums
    below start from +0.0, which absorbs a -0.0.
    """
    count = len(keypoints)
    scales = [_integer_scale(kp) for kp in keypoints]
    scale = np.array(scales).reshape(count, 1, 1)
    cy = np.array([kp.y for kp in keypoints]).reshape(count, 1, 1)
    cx = np.array([kp.x for kp in keypoints]).reshape(count, 1, 1)
    gauss = np.stack([_gaussian_window(s) for s in scales])

    # Sample offsets in the keypoint's frame, in pixels.
    u = _GRID[None, None, :] * scale
    v = _GRID[None, :, None] * scale
    if orientations is None:
        y = np.rint(cy + v).astype(np.intp)
        x = np.rint(cx + u).astype(np.intp)
        rx, ry = _haar(ii, y, x, scale)
        dx = gauss * rx
        dy = gauss * ry
    else:
        cos_o = np.array([math.cos(angle) for angle in orientations]).reshape(count, 1, 1)
        sin_o = np.array([math.sin(angle) for angle in orientations]).reshape(count, 1, 1)
        y = np.rint(cy + (-u * sin_o + v * cos_o)).astype(np.intp)
        x = np.rint(cx + (u * cos_o + v * sin_o)).astype(np.intp)
        rx, ry = _haar(ii, y, x, scale)
        # Rotate responses back into the keypoint frame.
        dx = gauss * (cos_o * rx + sin_o * ry)
        dy = gauss * (-sin_o * rx + cos_o * ry)

    # (keypoint, sub_y, sample_y, sub_x, sample_x, quantity); the 25 samples
    # of a subregion are added one at a time in (sample_y, sample_x) order —
    # ``sum(axis=...)`` would add them pairwise and round differently.
    samples = np.stack([dx, np.abs(dx), dy, np.abs(dy)], axis=-1).reshape(count, 4, 5, 4, 5, 4)
    sums = np.zeros((count, 4, 4, 4), dtype=np.float64)
    for sample_y in range(5):
        for sample_x in range(5):
            sums += samples[:, :, sample_y, :, sample_x, :]
    # Row layout: subregions row-major, four quantities each.
    descriptors = sums.reshape(count, DESCRIPTOR_SIZE)
    # Unit rows, each norm as ``np.linalg.norm`` takes it: the square root
    # of a BLAS dot over the row's 64 contiguous floats, whose rounding an
    # ``axis=1`` reduction need not share.  A (1, 64) @ (64, 1) matmul core
    # is that dot, one call per row.
    norms = np.sqrt(np.matmul(descriptors[:, None, :], descriptors[:, :, None])).reshape(count, 1)
    np.divide(descriptors, norms, out=descriptors, where=norms > 0)
    return descriptors


def describe_keypoint(
    ii: np.ndarray, keypoint: Keypoint, orientation: Optional[float] = None
) -> np.ndarray:
    """64-d SURF descriptor for one keypoint."""
    if orientation is None:
        orientation = assign_orientation(ii, keypoint)
    return _describe(ii, [keypoint], [orientation])[0]


def describe_keypoints(
    image: Image,
    keypoints: Sequence[Keypoint],
    ii: Optional[np.ndarray] = None,
    upright: bool = False,
) -> np.ndarray:
    """(N, 64) descriptor matrix; ``upright=True`` skips orientation (U-SURF)."""
    ii = ii if ii is not None else integral_image(image.pixels)
    if not keypoints:
        return np.zeros((0, DESCRIPTOR_SIZE))
    # Counter model: per keypoint, orientation assignment samples 113 circle
    # points and the descriptor 4x4 x 5x5 = 400 grid points; each sample is
    # two Haar wavelets (8 integral-image corner reads, ~16 adds) plus ~14
    # ops of weighting/rotation — call it 30 flops and 128 operand bytes per
    # sample, plus the 64-float descriptor write.
    samples = (0 if upright else 113) + 400
    record_work(
        flops=len(keypoints) * 30 * samples,
        mem_bytes=len(keypoints) * (128 * samples + 8 * DESCRIPTOR_SIZE),
        items=len(keypoints),
    )
    return _describe(ii, keypoints, None if upright else assign_orientations(ii, keypoints))
