"""k-d tree approximate nearest-neighbor search.

The IMM pipeline matches query descriptors to "pre-clustered descriptors
representing the database images by using an approximate nearest neighbor
(ANN) search" (Section 2.3.2).  This is a from-scratch k-d tree with
best-bin-first backtracking bounded by ``max_checks`` — exact when the
budget is large, approximate (and fast) when it is small.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ImageError


@dataclass
class _Node:
    axis: int = -1
    split: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    indices: Optional[np.ndarray] = None  # leaf payload

    @property
    def is_leaf(self) -> bool:
        return self.indices is not None


class KDTree:
    """k-d tree over row vectors of ``data``.

    Parameters
    ----------
    data:
        (N, D) float matrix; rows are indexed 0..N-1 in query results.
    leaf_size:
        Maximum points per leaf.
    """

    def __init__(self, data: np.ndarray, leaf_size: int = 8):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.size == 0:
            raise ImageError("cannot build a k-d tree over no data")
        if leaf_size < 1:
            raise ImageError("leaf_size must be >= 1")
        self.data = data
        self.leaf_size = leaf_size
        self._root = self._build(np.arange(len(data)))

    def _build(self, indices: np.ndarray) -> _Node:
        if len(indices) <= self.leaf_size:
            return _Node(indices=indices)
        subset = self.data[indices]
        axis = int(np.argmax(subset.var(axis=0)))
        order = np.argsort(subset[:, axis], kind="stable")
        middle = len(indices) // 2
        split_value = float(subset[order[middle], axis])
        left_mask = subset[:, axis] < split_value
        # Degenerate split (all equal along axis): force a leaf.
        if not left_mask.any() or left_mask.all():
            return _Node(indices=indices)
        return _Node(
            axis=axis,
            split=split_value,
            left=self._build(indices[left_mask]),
            right=self._build(indices[~left_mask]),
        )

    def query(
        self, vector: np.ndarray, k: int = 1, max_checks: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(distances, indices) of up to ``k`` nearest rows, nearest first.

        ``max_checks`` bounds how many leaf points are examined (best-bin-
        first approximation); None searches exactly.
        """
        vector = np.asarray(vector, dtype=float).ravel()
        if vector.shape[0] != self.data.shape[1]:
            raise ImageError("query dimension mismatch")
        if k < 1:
            raise ImageError("k must be >= 1")

        best: List[Tuple[float, int]] = []  # max-heap via negated distance
        checks = 0
        # Priority queue of (lower-bound distance, tiebreak, node).
        counter = 0
        frontier: List[Tuple[float, int, _Node]] = [(0.0, counter, self._root)]
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if len(best) == k and bound > -best[0][0]:
                break
            if max_checks is not None and checks >= max_checks and len(best) >= min(k, checks):
                break
            if node.is_leaf:
                squared = ((self.data[node.indices] - vector) ** 2).sum(axis=1)
                for index, distance in zip(node.indices.tolist(), squared.tolist()):
                    checks += 1
                    if len(best) < k:
                        heapq.heappush(best, (-distance, index))
                    elif distance < -best[0][0]:
                        heapq.heapreplace(best, (-distance, index))
                continue
            diff = vector[node.axis] - node.split
            near, far = (node.left, node.right) if diff < 0 else (node.right, node.left)
            counter += 1
            heapq.heappush(frontier, (bound, counter, near))
            counter += 1
            heapq.heappush(frontier, (max(bound, diff * diff), counter, far))

        ordered = sorted((-negative, index) for negative, index in best)
        distances = np.sqrt(np.array([item[0] for item in ordered]))
        indices = np.array([item[1] for item in ordered], dtype=int)
        return distances, indices

    def __len__(self) -> int:
        return len(self.data)
