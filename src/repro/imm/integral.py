"""Integral images and constant-time box sums — the SURF workhorse.

An integral image ``ii[y, x]`` holds the sum of all pixels above and left of
(y, x); any axis-aligned box sum is then four lookups.  Every SURF stage
(Hessian box filters, Haar wavelets) reduces to these box sums.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError


def integral_image(pixels: np.ndarray) -> np.ndarray:
    """(H+1, W+1) summed-area table with a zero top row and left column.

    The padding row/column lets box sums use ``y0``/``x0`` directly without
    branch-heavy -1 index handling.
    """
    if pixels.ndim != 2:
        raise ImageError("integral image requires a 2-D array")
    table = np.zeros((pixels.shape[0] + 1, pixels.shape[1] + 1))
    np.cumsum(np.cumsum(pixels, axis=0), axis=1, out=table[1:, 1:])
    return table


def box_sum(ii: np.ndarray, y0: int, x0: int, height: int, width: int) -> float:
    """Sum of the box with top-left (y0, x0) and the given extent.

    Coordinates are clipped to the image, so partially out-of-bounds boxes
    contribute only their visible part (SURF border behaviour).
    """
    max_y = ii.shape[0] - 1
    max_x = ii.shape[1] - 1
    y1 = min(max(y0 + height, 0), max_y)
    x1 = min(max(x0 + width, 0), max_x)
    y0 = min(max(y0, 0), max_y)
    x0 = min(max(x0, 0), max_x)
    return float(ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0])


class PaddedIntegral:
    """An integral image edge-padded by ``pad`` cells on every side.

    Edge padding *is* :func:`box_sum`'s clip: cell ``pad + j`` of the padded
    table holds ``ii[clip(j, 0, size)]``, so a box-sum map for every pixel is
    four plain slices.  Build one per batch of maps and drop it with them.
    """

    def __init__(self, ii: np.ndarray, pad: int):
        self.pad = pad
        self.height = ii.shape[0] - 1
        self.width = ii.shape[1] - 1
        self.table = np.pad(ii, pad, mode="edge")

    def box_sum_map(self, dy: int, dx: int, height: int, width: int) -> np.ndarray:
        """Box sums for *every* pixel at once.

        For each pixel (y, x) of the original image, returns the sum of the
        box whose top-left corner is (y + dy, x + dx), exactly as
        :func:`box_sum` computes it.  Out-of-range boxes are clipped.  This
        vectorized form is what makes the pure-numpy fast-Hessian tractable.
        """
        if box_reach(dy, dx, height, width) > self.pad:
            raise ImageError("box reaches past the integral image's padding")
        y0 = self.pad + dy
        x0 = self.pad + dx
        y1 = y0 + height
        x1 = x0 + width
        rows, cols = self.height, self.width
        table = self.table
        return (
            table[y1 : y1 + rows, x1 : x1 + cols]
            - table[y0 : y0 + rows, x1 : x1 + cols]
            - table[y1 : y1 + rows, x0 : x0 + cols]
            + table[y0 : y0 + rows, x0 : x0 + cols]
        )


def box_reach(dy: int, dx: int, height: int, width: int) -> int:
    """How far a box at offset (dy, dx) extends from its pixel on any side."""
    return max(abs(dy), abs(dx), abs(dy + height), abs(dx + width))
