"""Diagonal-covariance Gaussian mixture models for acoustic scoring.

This is the paper's GMM kernel (Table 4): "the major computation of the
algorithm lies in three nested loops that iteratively score the feature
vector against the training data" — feature vectors against per-state means,
precisions, and mixture weights.  :meth:`DiagonalGMM.component_log_likelihood`
is the vectorized scorer and :func:`log_sum_exp` folds its components.

The vectorized scorer expands ``-½·p·(x-μ)²`` so that T frames are one
contraction of the ``(T, 2D)`` moments ``[x² | x]`` with ``(2D, K)`` weights
built once per model, and no ``(T, K, D)`` array exists.  The contraction is
one BLAS product per frame row — ``(T, 1, 2D) @ (2D, K)`` — not one
``(T, 2D) @ (2D, K)`` product: a row must score the same whatever rows
accompany it (streaming scores ten at a time, pinned bit for bit to the whole
utterance), and OpenBLAS picks other kernels for a 2-D block's edge rows.
Every row being its own identical call holds that by construction
(DESIGN.md "One BLAS product per row").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ModelError
from repro.obs.counters import record_work

_LOG_2PI = float(np.log(2.0 * np.pi))

#: The BLAS row product computes a component in a whole block of this many
#: columns one way and one in the trailing partial block another, so the
#: weights are padded to whole blocks: then a component scores the same in
#: its own GMM as in a stacked bank of many (``GMMAcousticModel``).
_COLUMN_BLOCK = 4

#: Mixture weights never reach zero in EM (counts get +1e-10), but a
#: degenerate component must clamp to a finite log weight, not -inf.
_WEIGHT_FLOOR = np.finfo(np.float64).tiny


@dataclass
class DiagonalGMM:
    """K-component diagonal GMM over D-dimensional features.

    Parameters are stored exactly as the paper's FPGA design consumes them
    (Figure 11): a means vector, a precisions ("precs") vector, per-component
    log-weights, and a per-component additive factor folding in the Gaussian
    normalization constants.
    """

    means: np.ndarray        # (K, D)
    precisions: np.ndarray   # (K, D) -- 1 / variance
    log_weights: np.ndarray  # (K,)

    def __post_init__(self) -> None:
        if self.means.ndim != 2 or self.means.shape != self.precisions.shape:
            raise ModelError("means and precisions must both be (K, D)")
        if self.log_weights.shape != (self.means.shape[0],):
            raise ModelError("log_weights must be (K,)")
        if np.any(self.precisions <= 0):
            raise ModelError("precisions must be positive")
        # factor[k] = log w_k - 0.5 * (D log 2pi - sum log prec_k)
        dimension = self.means.shape[1]
        self.factors = (
            self.log_weights
            - 0.5 * (dimension * _LOG_2PI - np.log(self.precisions).sum(axis=1))
        )
        # score[t, k] = offsets[k] + [x_t² | x_t] · weights[k]
        scaled_means = self.precisions * self.means
        self._weights = np.concatenate([-0.5 * self.precisions, scaled_means], axis=1)
        # (2D, K), zero-padded to whole ``_COLUMN_BLOCK``s of components.
        n_components = self.means.shape[0]
        width = -(-n_components // _COLUMN_BLOCK) * _COLUMN_BLOCK
        self._weights_t = np.zeros((2 * dimension, width))
        self._weights_t[:, :n_components] = self._weights.T
        self._offsets = self.factors - 0.5 * (scaled_means * self.means).sum(axis=1)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dimension(self) -> int:
        return self.means.shape[1]

    def component_log_likelihood(self, features: np.ndarray) -> np.ndarray:
        """(T, K) per-component log densities (weights included)."""
        features = np.atleast_2d(features)
        if features.shape[1] != self.dimension:
            raise ModelError(
                f"feature dimension {features.shape[1]} != model {self.dimension}"
            )
        moments = np.empty((len(features), 2 * self.dimension))
        np.multiply(features, features, out=moments[:, : self.dimension])
        moments[:, self.dimension :] = features
        # One (1, 2D) @ (2D, K) BLAS call per row, so a row's bits cannot
        # depend on which rows share the call.  Both operands contiguous:
        # otherwise numpy falls back to its own loop, with other roundings.
        scores = np.matmul(moments[:, None, :], self._weights_t)[:, 0, : self.n_components]
        scores += self._offsets
        return scores


def record_scoring(frames: int, components: int, dimension: int, mixtures: int = 1) -> None:
    """Counter model of scoring ``frames`` rows against ``mixtures`` GMMs of
    ``components`` each: 4 flops per (frame, component, dimension) cell (two
    multiply-adds, one per moment) plus ~6 per (T, K) cell for the offset add
    and the log-sum-exp; bytes touch the feature block, both parameter banks,
    and the (T, K) scores."""
    record_work(
        flops=mixtures * frames * components * (4 * dimension + 6),
        mem_bytes=mixtures * 8 * (frames * (dimension + components) + 2 * components * dimension),
        items=mixtures * frames,
    )


def log_sum_exp(scores: np.ndarray) -> np.ndarray:
    """``log Σ_k exp(scores[..., k])``, one slab ``scores[..., k]`` at a time:
    K whole-slab operations cost a fifth of a reduction over a trailing axis
    of two to four, and summing in component order for every K keeps a
    stacked bank of mixtures bit-equal to scoring them one by one."""
    slabs = [scores[..., k] for k in range(scores.shape[-1])]
    peak = functools.reduce(np.maximum, slabs)
    return peak + np.log(sum(np.exp(slab - peak) for slab in slabs))


#: Rows taken at a time while fitting, for memory only (scoring is
#: row-independent, so blocks give the whole's bits).  Taken whole, k-means'
#: (rows, K, D) distances (19 MB for the 4-component fallback model) and the
#: E-step's (rows, 2D) moments (10 MB) are the largest allocations the process
#: ever makes, and the set-up peak they leave is what peak RSS then stands on.
_FIT_BLOCK_ROWS = 2048
#: Floor on every fitted variance.
MIN_VARIANCE = 1e-3


def _by_row_blocks(function: Callable[[np.ndarray], np.ndarray], data: np.ndarray) -> np.ndarray:
    """``function(data)`` for a row-wise ``function``, a block of rows at a time."""
    return np.concatenate(
        [
            function(data[start : start + _FIT_BLOCK_ROWS])
            for start in range(0, len(data), _FIT_BLOCK_ROWS)
        ]
    )


def fit_gmm(
    data: np.ndarray,
    n_components: int = 4,
    n_iterations: int = 10,
    seed: int = 0,
) -> DiagonalGMM:
    """Fit a diagonal GMM with k-means initialization then EM.

    Small and deterministic; adequate for per-phoneme-state acoustic models
    trained on synthesized speech.
    """
    data = np.atleast_2d(data)
    n_samples, dimension = data.shape
    if n_samples < n_components:
        raise ModelError("need at least one sample per component")
    rng = np.random.default_rng(seed)

    # k-means++-style init: spread starting means over the data.
    means = data[rng.choice(n_samples, size=n_components, replace=False)].copy()

    def nearest_mean(rows: np.ndarray) -> np.ndarray:
        return ((rows[:, None, :] - means[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)

    for _ in range(5):
        assignment = _by_row_blocks(nearest_mean, data)
        for k in range(n_components):
            members = data[assignment == k]
            if len(members):
                means[k] = members.mean(axis=0)

    variances = np.full((n_components, dimension), data.var(axis=0) + MIN_VARIANCE)
    weights = np.full(n_components, 1.0 / n_components)

    for _ in range(n_iterations):
        gmm = DiagonalGMM(means, 1.0 / variances, np.log(np.maximum(weights, _WEIGHT_FLOOR)))
        resp = _by_row_blocks(gmm.component_log_likelihood, data)
        resp -= resp.max(axis=1, keepdims=True)
        np.exp(resp, out=resp)
        resp /= resp.sum(axis=1, keepdims=True)

        counts = resp.sum(axis=0) + 1e-10
        weights = counts / counts.sum()
        means = (resp.T @ data) / counts[:, None]
        squared = (resp.T @ (data * data)) / counts[:, None]
        variances = np.maximum(squared - means**2, MIN_VARIANCE)

    return DiagonalGMM(means, 1.0 / variances, np.log(np.maximum(weights, _WEIGHT_FLOOR)))
