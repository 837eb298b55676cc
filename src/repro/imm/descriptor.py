"""SURF feature description: upright (U-SURF) 64-d descriptors.

Implements the paper's Feature Description stage (Figure 5, right box): a
4x4 grid of subregions around each keypoint, sampled in the image's own
frame, each contributes (sum dx, sum |dx|, sum dy, sum |dy|) of Haar wavelet
responses for a 64-dimensional vector, normalized to unit length.  No
orientation is assigned: query views are shifted and noised, never rotated
(DESIGN.md "U-SURF without the rotation").
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.imm.hessian import Keypoint
from repro.imm.image import Image
from repro.imm.integral import integral_image
from repro.obs.counters import record_work

DESCRIPTOR_SIZE = 64


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
    # Each box sums in the order ((ii[y1,x1] - ii[y0,x1]) - ii[y1,x0]) + ii[y0,x0].
    haar_x = (bottom_right - top_right - bottom_center + top_center) - (
        bottom_center - top_center - bottom_left + top_left
    )
    haar_y = (bottom_right - middle_right - bottom_left + middle_left) - (
        middle_right - top_right - middle_left + top_left
    )
    return haar_x, haar_y


@lru_cache(maxsize=32)
def _gaussian_window(scale: int) -> np.ndarray:
    """(20, 20) descriptor weights at one integer scale, sigma 3.3 * scale.

    The weights depend on nothing but the scale, and a detector ladder has a
    handful of scales, so the table is computed once each — by ``math.exp``
    rather than ``np.exp``: numpy's SIMD transcendentals may differ from libm
    by an ulp.
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


def _describe(ii: np.ndarray, keypoints: Sequence[Keypoint]) -> np.ndarray:
    """(N, 64) upright descriptors of ``keypoints``.

    All N x 20 x 20 samples are taken at once; axes are (keypoint, v, u)
    with u along the image's x axis and v along its y axis.
    """
    count = len(keypoints)
    scales = [_integer_scale(kp) for kp in keypoints]
    scale = np.array(scales).reshape(count, 1, 1)
    cy = np.array([kp.y for kp in keypoints]).reshape(count, 1, 1)
    cx = np.array([kp.x for kp in keypoints]).reshape(count, 1, 1)
    gauss = np.stack([_gaussian_window(s) for s in scales])

    # Sample offsets in pixels.
    u = _GRID[None, None, :] * scale
    v = _GRID[None, :, None] * scale
    y = np.rint(cy + v).astype(np.intp)
    x = np.rint(cx + u).astype(np.intp)
    rx, ry = _haar(ii, y, x, scale)
    dx = gauss * rx
    dy = gauss * ry

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


def describe_keypoints(
    image: Image,
    keypoints: Sequence[Keypoint],
    ii: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(N, 64) upright descriptor matrix (U-SURF)."""
    ii = ii if ii is not None else integral_image(image.pixels)
    if not keypoints:
        return np.zeros((0, DESCRIPTOR_SIZE))
    # Counter model: per keypoint, the descriptor samples 4x4 x 5x5 = 400
    # grid points; each sample is two Haar wavelets (8 integral-image corner
    # reads, ~16 adds) plus ~14 ops of weighting — call it 30 flops and 128
    # operand bytes per sample, plus the 64-float descriptor write.
    samples = 400
    record_work(
        flops=len(keypoints) * 30 * samples,
        mem_bytes=len(keypoints) * (128 * samples + 8 * DESCRIPTOR_SIZE),
        items=len(keypoints),
    )
    return _describe(ii, keypoints)
