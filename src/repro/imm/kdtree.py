"""k-d tree approximate nearest-neighbor search.

The IMM pipeline matches query descriptors to "pre-clustered descriptors
representing the database images by using an approximate nearest neighbor
(ANN) search" (Section 2.3.2).  This is a from-scratch k-d tree with
best-bin-first backtracking bounded by ``max_checks`` — exact when the
budget is large, approximate (and fast) when it is small.

The tree is a set of flat arrays (split axis and value per node, first
child per node, each leaf's root path, a padded leaf → row table), and a
batch of queries is searched in one pass with no per-query loop: the
best-bin-first frontier descends one tree level at a time for every query
at once, and the order the heap would examine leaves in is one
``np.lexsort`` (:meth:`KDTree.query_batch`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ImageError

#: Elements one chunk of queries may put in the search's largest temporaries,
#: every node's bound and the (queries, leaves, rows, dims) gather; one query
#: image's descriptors fit in one chunk.
_CHUNK_ELEMENTS = 1 << 19
#: Most points a leaf holds.
LEAF_SIZE = 8


def _split(data: np.ndarray, rows: np.ndarray):
    """(axis, value, left mask) splitting ``rows`` at the median of the
    widest axis, or None when they make a leaf."""
    if len(rows) <= LEAF_SIZE:
        return None
    subset = data[rows]
    axis = int(np.argmax(subset.var(axis=0)))
    order = np.argsort(subset[:, axis], kind="stable")
    value = float(subset[order[len(rows) // 2], axis])
    left = subset[:, axis] < value
    # A degenerate split (all equal along axis) makes a leaf.
    if not left.any() or left.all():
        return None
    return axis, value, left


def _lowest(reach: int, ids: np.ndarray, *columns: np.ndarray):
    """Per row, the entries whose bound (first column) is no higher than the
    row's ``reach``-th smallest, padded to a common width with other entries."""
    bound = columns[0]
    limit = np.partition(bound, reach - 1, axis=1)[:, reach - 1, None]
    width = int((bound <= limit).sum(axis=1).max())
    pick = np.argpartition(bound, width - 1, axis=1)[:, :width]
    among = np.arange(len(pick))[:, None]
    return [array[among, pick] for array in (ids, *columns)]


class KDTree:
    """k-d tree over row vectors of ``data``.

    Parameters
    ----------
    data:
        (N, D) float matrix; rows are indexed 0..N-1 in query results.

    A leaf holds at most ``LEAF_SIZE`` points.
    """

    def __init__(self, data: np.ndarray):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.size == 0:
            raise ImageError("cannot build a k-d tree over no data")
        self.data = data

        # Nodes breadth-first from the root (node 0); two ids follow the
        # last node, the root-path padding and the frontier padding.  A
        # leaf's split is +inf and its (left, right) children are itself and
        # the frontier padding, so a descent step keeps it as its own near
        # child; both children of a padding id are frontier padding.
        members = [np.arange(len(data))]
        parent, axes, splits, children = [0], [0], [np.inf], [None]
        leaf_nodes: List[int] = []
        node = 0
        while node < len(members):
            chosen = _split(data, members[node])
            if chosen is None:
                leaf_nodes.append(node)
            else:
                axes[node], splits[node], left = chosen
                children[node] = (len(members), len(members) + 1)
                for rows in (members[node][left], members[node][~left]):
                    members.append(rows)
                    parent.append(node)
                    axes.append(0)
                    splits.append(np.inf)
                    children.append(None)
            node += 1
        nodes = len(members)
        padding = nodes + 1
        self._axis = np.array(axes + [0, 0], dtype=np.intp)
        self._split = np.array(splits + [np.inf, np.inf])
        self._children = np.array(
            [pair or (node, padding) for node, pair in enumerate(children)]
            + [(padding, padding)] * 2,
            dtype=np.intp,
        )
        self._leaf_of = np.zeros(nodes + 2, dtype=np.intp)
        self._leaf_of[leaf_nodes] = np.arange(len(leaf_nodes))
        # Leaves under each node: going far skips the near child's in a
        # near-first depth-first walk.
        self._leaves = np.zeros(nodes + 2)
        self._leaves[leaf_nodes] = 1
        for node in range(nodes - 1, 0, -1):
            self._leaves[parent[node]] += self._leaves[node]

        # Each leaf's root → leaf node ids, right-aligned; shallower paths
        # start with the root-path padding id, whose bound is -inf.
        paths = []
        for node in leaf_nodes:
            path = [node]
            while path[-1] != 0:
                path.append(parent[path[-1]])
            paths.append(path[::-1])
        self._path = np.full((len(paths), max(map(len, paths))), nodes, dtype=np.intp)
        for leaf, path in enumerate(paths):
            self._path[leaf, self._path.shape[1] - len(path):] = path

        self._sizes = np.array([len(members[node]) for node in leaf_nodes])
        # Leaf → row table padded with row N, a row of +inf (distance inf).
        self._rows = np.full((len(leaf_nodes), self._sizes.max()), len(data), dtype=np.intp)
        for leaf, node in enumerate(leaf_nodes):
            self._rows[leaf, : len(members[node])] = members[node]
        self._padded = np.vstack([data, np.full((1, data.shape[1]), np.inf)])

    def query_batch(
        self, queries: np.ndarray, k: int = 1, max_checks: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(distances, indices), each (Q, k): up to ``k`` nearest rows for
        every query row, nearest first.

        ``max_checks`` (>= 1) bounds how many leaf points are examined
        (best-bin-first approximation); None searches exactly.  The result is
        the ``k`` rows smallest by (distance, row index) among those a heap-
        driven best-bin-first walk examines: when more than ``k`` of them tie
        at the k-th distance, the lowest row indices win.
        Row q is query q's result, padded with distance ``inf`` and index -1
        where fewer than ``k`` rows were examined.

        Best-bin-first pops tree nodes from a heap keyed (bound, push
        counter), a node's bound being the largest far-turn ``diff**2`` on
        its root path.  Keys only grow along a path, so the pops come out
        sorted, and a node's counter ranks after its parent's pop, near
        child before far: leaves are examined in the order of (leaf bound,
        ancestor bounds going up, ``-inf`` past the root, near-first
        depth-first rank).  The walk stops after the leaf that brings the
        examined rows to ``max_checks``, or before the first leaf whose bound
        exceeds the k-th best squared distance so far.  Every row of that
        leaf and of the leaves after it is farther than the k-th best (a
        bound is a lower bound and bounds only grow), so the search examines
        the budget's whole prefix of the order and returns the same rows.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if queries.ndim != 2 or queries.shape[1] != self.data.shape[1]:
            raise ImageError("query dimension mismatch")
        if k < 1:
            raise ImageError("k must be >= 1")
        if max_checks is not None and max_checks < 1:
            raise ImageError("max_checks must be None or >= 1")
        distances = np.full((len(queries), k), np.inf)
        indices = np.full((len(queries), k), -1, dtype=int)
        checks = np.inf if max_checks is None else max_checks
        # No query examines more leaves than the smallest ones that fit.
        smallest = np.sort(self._sizes)
        reach = int((np.cumsum(smallest) - smallest < checks).sum())
        if reach == 0:
            return distances, indices
        per_query = len(self._children) + reach * self._rows.shape[1] * self.data.shape[1]
        step = max(1, _CHUNK_ELEMENTS // per_query)
        for start in range(0, len(queries), step):
            chunk = slice(start, start + step)
            self._search(queries[chunk], k, checks, reach, distances[chunk], indices[chunk])
        return distances, indices

    def _search(self, queries, k, checks, reach, distances, indices) -> None:
        """Best-bin-first for a chunk of queries, written into the output rows."""
        n = len(queries)
        among = np.arange(n)[:, None]
        padding = len(self._children) - 1
        # The heap's frontier, one tree level at a time: node ids, their
        # bounds (``max(bound, diff * diff)`` on far turns) and near-first
        # depth-first ranks.  ``seen`` keeps visited nodes' bounds for the
        # sort keys, -inf at the root-path padding.
        front = np.zeros((n, 1), dtype=np.intp)
        bound = np.zeros((n, 1))
        rank = np.zeros((n, 1))
        seen = np.zeros((n, len(self._children)))
        seen[:, padding - 1] = -np.inf
        for _ in range(self._path.shape[1] - 1):
            # Each entry's near-most leaf shares its bound, so no leaf under
            # an entry above the reach-th smallest bound is ever examined.
            if front.shape[1] > 2 * reach:
                front, bound, rank = _lowest(reach, front, bound, rank)
            diff = queries[among, self._axis[front]] - self._split[front]
            # (near, far) children: the left child is near when diff < 0.
            children = self._children[front]
            children = np.where((diff >= 0)[..., None], children[..., ::-1], children)
            far_rank = rank + self._leaves[children[..., 0]]
            bound = np.stack([bound, np.maximum(bound, diff * diff)], axis=2).reshape(n, -1)
            rank = np.stack([rank, far_rank], axis=2).reshape(n, -1)
            front = children.reshape(n, -1)
            seen[among, front] = bound
        front, bound, rank = _lowest(reach, front, bound, rank)

        # np.lexsort's keys, least significant first: the rank, the bounds
        # from the root (or -inf past it) down to the leaf's own.
        leaf = self._leaf_of[front]  # padding: leaf 0, but bound inf sorts it last
        keys = np.empty((self._path.shape[1] + 1, n, front.shape[1]))
        keys[0] = rank
        keys[1:-1] = seen[among, self._path.T[:-1, leaf]]
        keys[-1] = bound
        order = np.lexsort(keys, axis=-1)
        visit = leaf[among, order]  # the heap's pop order
        # A leaf is examined while fewer than max_checks rows came before it.
        sizes = self._sizes[visit]
        budget = (np.cumsum(sizes, axis=1) - sizes < checks).sum(axis=1)
        span = int(budget.max())

        rows = self._rows[visit[:, :span]]  # (n, span, width)
        rows[np.arange(span) >= budget[:, None]] = len(self.data)
        gathered = np.take(self._padded, rows, axis=0)
        np.subtract(gathered, queries[:, None, None, :], out=gathered)
        np.square(gathered, out=gathered)
        squared = gathered.sum(axis=-1)  # (n, span, width)

        # Complex numbers sort by (real, imag): distance, then row index.
        ranked = np.empty((n, rows[0].size), dtype=complex)
        ranked.real = squared.reshape(n, -1)
        ranked.imag = rows.reshape(n, -1)
        kept = min(k, ranked.shape[1])
        ranked = np.partition(ranked, range(kept), axis=1)[:, :kept]
        found = ranked.imag.astype(int)
        distances[:, :kept] = np.sqrt(ranked.real)
        indices[:, :kept] = np.where(found < len(self.data), found, -1)

    def __len__(self) -> int:
        return len(self.data)
