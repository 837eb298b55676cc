"""Descriptor matching: brute force baseline and k-d-tree ANN with ratio test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ImageError
from repro.imm.kdtree import KDTree


@dataclass(frozen=True)
class DescriptorMatch:
    """One accepted correspondence: query row → database row."""

    query_index: int
    database_index: int
    distance: float


def match_bruteforce(
    query: np.ndarray, database: np.ndarray, ratio: float = 0.8
) -> List[DescriptorMatch]:
    """Exact 2-NN matching with Lowe's ratio test.

    A query descriptor matches only when its nearest database descriptor is
    clearly better than the second nearest (distance ratio below ``ratio``).
    """
    if not 0 < ratio <= 1:
        raise ImageError("ratio must be in (0, 1]")
    if len(query) == 0 or len(database) == 0:
        return []
    # (Q, N) pairwise distances via the expansion trick.
    q_sq = (query**2).sum(axis=1)[:, None]
    d_sq = (database**2).sum(axis=1)[None, :]
    distances = np.sqrt(np.maximum(q_sq + d_sq - 2.0 * query @ database.T, 0.0))

    matches: List[DescriptorMatch] = []
    for row in range(len(query)):
        if database.shape[0] == 1:
            matches.append(DescriptorMatch(row, 0, float(distances[row, 0])))
            continue
        order = np.argpartition(distances[row], 1)[:2]
        first, second = sorted(order, key=lambda i: distances[row, i])
        if distances[row, first] < ratio * distances[row, second]:
            matches.append(
                DescriptorMatch(row, int(first), float(distances[row, first]))
            )
    return matches


class AnnMatcher:
    """k-d-tree-backed matcher over a fixed database of descriptors."""

    def __init__(
        self,
        database: np.ndarray,
        ratio: float = 0.8,
        max_checks: Optional[int] = 64,
    ):
        if not 0 < ratio <= 1:
            raise ImageError("ratio must be in (0, 1]")
        if max_checks is not None and max_checks < 1:
            raise ImageError("max_checks must be None or >= 1")
        self.database = np.atleast_2d(database)
        self.ratio = ratio
        self.max_checks = max_checks
        self.tree = KDTree(self.database)

    def match(self, query: np.ndarray) -> List[DescriptorMatch]:
        """Ratio-tested matches for each query descriptor, from one batched search.

        A row with a single candidate has an ``inf`` second distance and
        passes; a row with none has an ``inf`` first distance and fails.
        Which of several rows tied at a distance the tree returns cannot
        change a match: with ``ratio <= 1`` a tie at first place fails the
        test, and second place contributes only its distance.
        """
        distances, indices = self.tree.query_batch(
            np.atleast_2d(query), k=2, max_checks=self.max_checks
        )
        accepted = np.flatnonzero(distances[:, 0] < self.ratio * distances[:, 1])
        return [
            DescriptorMatch(int(row), int(indices[row, 0]), float(distances[row, 0]))
            for row in accepted
        ]
