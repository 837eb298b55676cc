"""Image container and the synthetic scene generator.

The paper matches query photos against the Stanford Mobile Visual Search
database.  Offline, we synthesize "scenes" instead: each scene is a textured
grayscale image with randomly placed blobs, bars, and gradients — enough
structure for the fast-Hessian detector to find repeatable keypoints.  Query
images are perturbed copies (noise, brightness, small shift), so matching a
query to its source scene is a real retrieval task with known ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ImageError


@dataclass(frozen=True)
class Image:
    """Grayscale image: float64 pixels in [0, 1], shape (height, width)."""

    pixels: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        if self.pixels.ndim != 2:
            raise ImageError("image must be 2-D grayscale")
        if self.pixels.size == 0:
            raise ImageError("image must be non-empty")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def tiles(self, tile_size: int) -> List[Tuple[int, int, "Image"]]:
        """Split into (y_offset, x_offset, tile) pieces of ~``tile_size``.

        Used by the pthread-analog FE port: "we pre-process the input images
        for feature extraction by tiling the images" (Section 4.3.1).  The
        minimum tile is 50x50 per the paper; smaller remainders merge into
        their neighbor.
        """
        if tile_size < 50:
            raise ImageError("tile size below the paper's 50x50 minimum")
        y_edges = _edges(self.height, tile_size)
        x_edges = _edges(self.width, tile_size)
        tiles = []
        for y0, y1 in zip(y_edges[:-1], y_edges[1:]):
            for x0, x1 in zip(x_edges[:-1], x_edges[1:]):
                tiles.append((y0, x0, Image(self.pixels[y0:y1, x0:x1], self.name)))
        return tiles


def _edges(extent: int, step: int) -> List[int]:
    edges = list(range(0, extent, step))
    # Merge a runt final tile into the previous one.
    if extent - edges[-1] < step // 2 and len(edges) > 1:
        edges.pop()
    edges.append(extent)
    return edges


#: How far a query view strays from its scene: pixels of shift each way,
#: the standard deviation of pixel noise, and the brightness offset bound.
QUERY_SHIFT = 2
QUERY_NOISE = 0.02
QUERY_BRIGHTNESS = 0.05


class SceneGenerator:
    """Deterministic synthetic scene factory."""

    def __init__(self, height: int = 128, width: int = 128, seed: int = 9):
        if height < 64 or width < 64:
            raise ImageError("scenes must be at least 64x64")
        self.height = height
        self.width = width
        self._seed = seed

    def scene(self, index: int) -> Image:
        """The ``index``-th scene; same index always yields the same image."""
        rng = np.random.default_rng(self._seed * 10_007 + index)
        pixels = np.zeros((self.height, self.width), dtype=np.float64)

        # Smooth background gradient.
        yy, xx = np.mgrid[0 : self.height, 0 : self.width]
        angle = rng.uniform(0, 2 * np.pi)
        pixels += 0.2 + 0.15 * (
            np.cos(angle) * xx / self.width + np.sin(angle) * yy / self.height
        )

        # Gaussian blobs (bright and dark) — strong Hessian responses.
        for _ in range(rng.integers(8, 14)):
            cy = rng.uniform(10, self.height - 10)
            cx = rng.uniform(10, self.width - 10)
            sigma = rng.uniform(2.0, 6.0)
            amplitude = rng.uniform(0.3, 0.7) * rng.choice([-1.0, 1.0])
            pixels += amplitude * np.exp(
                -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2)
            )

        # Rectangles and bars — corner structure.
        for _ in range(rng.integers(4, 8)):
            y0 = int(rng.integers(0, self.height - 20))
            x0 = int(rng.integers(0, self.width - 20))
            h = int(rng.integers(8, 20))
            w = int(rng.integers(8, 20))
            pixels[y0 : y0 + h, x0 : x0 + w] += rng.uniform(-0.4, 0.4)

        pixels = np.clip(pixels, 0.0, 1.0)
        return Image(pixels, name=f"scene-{index}")

    def scenes(self, count: int) -> List[Image]:
        return [self.scene(index) for index in range(count)]

    def query_for(self, index: int, seed: int = 77) -> Image:
        """A perturbed view of scene ``index`` (the camera-captured query):
        shifted up to ``QUERY_SHIFT`` pixels each way, with Gaussian pixel
        noise of ``QUERY_NOISE`` and a brightness offset within
        ±``QUERY_BRIGHTNESS``."""
        rng = np.random.default_rng(seed * 31 + index)
        base = self.scene(index).pixels
        dy = int(rng.integers(-QUERY_SHIFT, QUERY_SHIFT + 1))
        dx = int(rng.integers(-QUERY_SHIFT, QUERY_SHIFT + 1))
        shifted = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
        perturbed = shifted + rng.normal(0.0, QUERY_NOISE, base.shape)
        perturbed += rng.uniform(-QUERY_BRIGHTNESS, QUERY_BRIGHTNESS)
        return Image(np.clip(perturbed, 0.0, 1.0), name=f"query-{index}")
