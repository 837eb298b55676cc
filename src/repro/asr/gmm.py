"""Diagonal-covariance Gaussian mixture models for acoustic scoring.

This is the paper's GMM kernel (Table 4): "the major computation of the
algorithm lies in three nested loops that iteratively score the feature
vector against the training data" — feature vectors against per-state means,
precisions, and mixture weights.  :meth:`DiagonalGMM.log_likelihood` is the
vectorized scorer used in production paths; :func:`score_naive` keeps the
literal three-nested-loop form as the single-threaded CMP baseline the suite
benchmarks against.

The vectorized scorer expands ``-½·p·(x-μ)²`` so that T frames are one
contraction of the ``(T, 2D)`` moments ``[x² | x]`` with ``(K, 2D)`` weights
built once per model, and no ``(T, K, D)`` array exists.  It is ``np.einsum``,
not a BLAS product: a row must score the same whatever rows accompany it
(streaming scores ten at a time, pinned bit for bit to the whole utterance),
and OpenBLAS picks other kernels for a block's edge rows (DESIGN.md).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ModelError
from repro.obs.counters import record_work

_LOG_2PI = float(np.log(2.0 * np.pi))

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
        scores = np.einsum("td,kd->tk", moments, self._weights)
        scores += self._offsets
        return scores

    def log_likelihood(self, features: np.ndarray) -> np.ndarray:
        """(T,) log p(x_t) via log-sum-exp over components."""
        component = self.component_log_likelihood(features)
        record_scoring(len(component), self.n_components, self.dimension)
        return log_sum_exp(component)

    def score(self, feature: np.ndarray) -> float:
        """Log-likelihood of a single feature vector."""
        return float(self.log_likelihood(feature[None, :])[0])


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


def score_naive(gmm: DiagonalGMM, features: np.ndarray) -> np.ndarray:
    """Literal three-nested-loop GMM scoring (the CMP baseline kernel).

    Outer loop over feature vectors, middle loop over mixture components
    (the log-summation the paper could not parallelize), inner loop over
    dimensions (the log-differential unit it fully parallelized on FPGA).
    """
    features = np.atleast_2d(features)
    n_frames = features.shape[0]
    out = np.empty(n_frames)
    for t in range(n_frames):
        total = -np.inf
        for k in range(gmm.n_components):
            acc = gmm.factors[k]
            for d in range(gmm.dimension):
                diff = features[t, d] - gmm.means[k, d]
                acc -= 0.5 * gmm.precisions[k, d] * diff * diff
            total = max(total, acc) + np.log1p(np.exp(-abs(total - acc)))
        out[t] = total
    return out


#: Rows taken at a time while fitting.  Taken whole, k-means' (rows, K, D)
#: distances (19 MB for the 4-component fallback model) and the E-step's
#: (rows, 2D) moments (10 MB) are the largest allocations the process ever
#: makes, and the set-up peak they leave is what peak RSS then stands on.
_FIT_BLOCK_ROWS = 2048


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
    min_variance: float = 1e-3,
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

    variances = np.full((n_components, dimension), data.var(axis=0) + min_variance)
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
        variances = np.maximum(squared - means**2, min_variance)

    return DiagonalGMM(means, 1.0 / variances, np.log(np.maximum(weights, _WEIGHT_FLOOR)))
