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


class PaddedIntegral:
    """An integral image edge-padded by ``pad`` cells on every side, raveled.

    Edge padding clips a box to the image: cell ``pad + j`` of the padded
    table holds ``ii[clip(j, 0, size)]``, so a partly out-of-bounds box
    contributes only its visible part (SURF border behaviour).  A box-sum
    map is then one contiguous run of ``height * stride`` cells over the
    raveled table, its four corners at flat offsets: cell ``y * stride + x``
    holds pixel (y, x)'s box for ``x < width``, and the ``stride - width``
    cells closing each row are padding, computed and ignored.  A run may also cover only some rows,
    or reach into the padding rows above and below.  Build one per batch of
    maps and drop it with them.
    """

    def __init__(self, ii: np.ndarray, pad: int):
        self.pad = pad
        self.height = ii.shape[0] - 1
        self.width = ii.shape[1] - 1
        table = np.pad(ii, pad, mode="edge")
        self.stride = table.shape[1]
        self.cells = self.height * self.stride
        self.flat = table.ravel()

    def box_sums(
        self, dy: int, dx: int, height: int, width: int, out: np.ndarray, start: int = 0
    ) -> np.ndarray:
        """Box sums for a run of cells at once, written to ``out``.

        ``out[i]`` holds the sum of the box whose top-left corner is
        (y + dy, x + dx) for cell ``start + i = y * stride + x``, summed in
        the order ``((ii[y1, x1] - ii[y0, x1]) - ii[y1, x0]) + ii[y0, x0]``.
        With ``start`` 0 and ``height * stride`` cells that is every pixel
        of the image; any other range of the same flat layout, rows above
        or below the image included, is a run too.  Out-of-range boxes are clipped.
        """
        if box_reach(dy, dx, height, width) > self.pad:
            raise ImageError("box reaches past the integral image's padding")
        top = (self.pad + dy) * self.stride + self.pad + dx + start
        bottom = top + height * self.stride
        cells, flat = len(out), self.flat
        if top < 0 or bottom + width + cells > flat.size:
            raise ImageError("run reaches past the integral image's padding")
        np.subtract(
            flat[bottom + width : bottom + width + cells],
            flat[top + width : top + width + cells],
            out=out,
        )
        np.subtract(out, flat[bottom : bottom + cells], out=out)
        np.add(out, flat[top : top + cells], out=out)
        return out

    def box_sums_at(
        self, dy: int, dx: int, height: int, width: int, out: np.ndarray, cells: np.ndarray
    ) -> np.ndarray:
        """:meth:`box_sums` at the given in-image cells only, in the same order."""
        if box_reach(dy, dx, height, width) > self.pad:
            raise ImageError("box reaches past the integral image's padding")
        top = (self.pad + dy) * self.stride + self.pad + dx + cells
        bottom = top + height * self.stride
        flat = self.flat
        np.subtract(flat[bottom + width], flat[top + width], out=out)
        np.subtract(out, flat[bottom], out=out)
        np.add(out, flat[top], out=out)
        return out


def box_reach(dy: int, dx: int, height: int, width: int) -> int:
    """How far a box at offset (dy, dx) extends from its pixel on any side."""
    return max(abs(dy), abs(dx), abs(dy + height), abs(dx + width))
