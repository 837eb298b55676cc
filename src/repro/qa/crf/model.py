"""Linear-chain conditional random field (Lafferty et al., 2001).

The model scores a tag sequence y for a sentence x as::

    score(y|x) = sum_t [ W[features(x,t), y_t] + T[y_{t-1}, y_t] ]

with conditional probability p(y|x) = exp(score) / Z(x).  Inference uses
Viterbi; training maximizes conditional log-likelihood with gradients from
the forward-backward algorithm.  This reproduces the inference math that the
paper's CRF kernel benchmarks per sentence (Table 4).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.obs.counters import record_work
from repro.qa.crf.features import FeatureMap, extract_ids, lookup_ids
from repro.qa.crf.tagset import N_TAGS, TAGS


def _logsumexp(values: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable log(sum(exp(values))) along ``axis``; ``out`` is
    scratch of ``values``' shape (it may be ``values`` itself)."""
    peak = values.max(axis=axis, keepdims=True)
    shifted = np.subtract(values, peak, out=out)
    total = np.exp(shifted, out=shifted).sum(axis=axis, keepdims=True)
    np.log(total, out=total)
    total += peak
    return total.squeeze(axis)


def record_decode_work(length: int, n_tags: int) -> None:
    """Charge one Viterbi decode of a ``length``-token sentence.

    Counter model: a K x K candidate matrix per transition (add + max-compare
    = 2 flops per cell) plus a K-wide emission add per position; bytes cover
    the delta/backpointer tables, the emission matrix and one transition read
    per step, float64.  It is the kernel's Table 4 demand, sentences
    *presented*: a caller that kept a sentence's tags charges a repeat here.
    """
    record_work(
        flops=(length - 1) * 2 * n_tags * n_tags + length * n_tags,
        mem_bytes=8 * (3 * length * n_tags + (length - 1) * n_tags * n_tags),
        items=length,
    )


class LinearChainCRF:
    """A trained (or trainable) linear-chain CRF over the fixed POS tagset."""

    def __init__(self, feature_map: FeatureMap | None = None, n_tags: int = N_TAGS):
        self.feature_map = feature_map if feature_map is not None else FeatureMap()
        self.n_tags = n_tags
        # Emission weights grow with the feature map; the table ends in one
        # extra all-zero row, so id -1 pads a ragged feature-id matrix.
        self._emission = np.zeros((1, n_tags))
        self.transition = np.zeros((n_tags, n_tags))
        self.start = np.zeros(n_tags)
        self.end = np.zeros(n_tags)

    # -- parameter plumbing ---------------------------------------------------

    def _ensure_capacity(self) -> None:
        missing = len(self.feature_map) + 1 - self._emission.shape[0]
        if missing > 0:
            # The old pad row is zero, which is what a new feature starts at.
            self._emission = np.vstack([self._emission, np.zeros((missing, self.n_tags))])

    @property
    def emission(self) -> np.ndarray:
        """(n_features, n_tags) emission weights: a writable view without the pad row."""
        self._ensure_capacity()
        return self._emission[:-1]

    @property
    def n_parameters(self) -> int:
        return self.emission.size + self.transition.size + self.start.size + self.end.size

    # -- potentials -------------------------------------------------------------

    def _emission_scores(self, feature_ids: List[List[int]]) -> np.ndarray:
        """(T, n_tags) matrix of summed emission weights per position.

        One gather of the id matrix (ragged rows padded with the zero row),
        summed over the feature axis: the reduction adds a position's rows in
        index order and a trailing ``+ 0.0`` is exact, so each position is the
        ``weights[ids].sum(axis=0)`` of its own ids.
        """
        self._ensure_capacity()
        width = max(map(len, feature_ids), default=0)
        padded = [ids + [-1] * (width - len(ids)) for ids in feature_ids]
        id_matrix = np.array(padded, dtype=np.intp).reshape(len(padded), width)
        return self._emission[id_matrix].sum(axis=1)

    def sentence_potentials(self, tokens: Sequence[str]) -> np.ndarray:
        """Emission score matrix for external inspection/benchmarks."""
        return self._emission_scores(lookup_ids(tokens, self.feature_map))

    # -- inference ----------------------------------------------------------------

    def decode(self, tokens: Sequence[str]) -> List[str]:
        """Most likely tag sequence (Viterbi)."""
        if not tokens:
            return []
        emissions = self._emission_scores(lookup_ids(tokens, self.feature_map))
        length = len(tokens)
        record_decode_work(length, self.n_tags)
        transition = self.transition
        candidate = np.empty_like(transition)
        backpointer = np.empty((length, self.n_tags), dtype=np.intp)
        delta = self.start + emissions[0]
        for t in range(1, length):
            # candidate[i, j] = delta[i] + transition[i, j]
            np.add(delta[:, None], transition, out=candidate)
            candidate.argmax(axis=0, out=backpointer[t])
            delta = candidate.max(axis=0)
            delta += emissions[t]
        delta += self.end
        tag = int(delta.argmax())
        path = [tag]
        pointers = backpointer.tolist()
        for t in range(length - 1, 0, -1):
            tag = pointers[t][tag]
            path.append(tag)
        path.reverse()
        return [TAGS[tag] for tag in path]

    def forward_backward(
        self, emissions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Return (alpha, beta, logZ) in log space for one sentence."""
        length = emissions.shape[0]
        transition = self.transition
        alpha = np.empty((length, self.n_tags))
        beta = np.empty((length, self.n_tags))
        scratch = np.empty_like(transition)
        inbound = np.empty(self.n_tags)
        # alpha reduces the strided axis of ``scratch`` (row after row), beta the
        # contiguous one (numpy's unrolled pairwise sum): stacking the two into
        # one reduction would change a summation order and the weights' last ulp.
        alpha[0] = self.start + emissions[0]
        for t in range(1, length):
            np.add(alpha[t - 1][:, None], transition, out=scratch)
            np.add(emissions[t], _logsumexp(scratch, axis=0, out=scratch), out=alpha[t])
        beta[length - 1] = self.end
        for t in range(length - 2, -1, -1):
            np.add(emissions[t + 1], beta[t + 1], out=inbound)
            np.add(transition, inbound, out=scratch)
            beta[t] = _logsumexp(scratch, axis=1, out=scratch)
        log_z = float(_logsumexp(alpha[length - 1] + self.end, axis=0))
        return alpha, beta, log_z

    def marginals(self, tokens: Sequence[str]) -> np.ndarray:
        """(T, n_tags) posterior tag marginals p(y_t = k | x)."""
        if not tokens:
            return np.zeros((0, self.n_tags))
        emissions = self._emission_scores(lookup_ids(tokens, self.feature_map))
        alpha, beta, log_z = self.forward_backward(emissions)
        return np.exp(alpha + beta - log_z)

    def _path_score(self, emissions: np.ndarray, tags: Sequence[int]) -> float:
        """Unnormalised score of one tag-id sequence."""
        score = self.start[tags[0]] + emissions[0, tags[0]]
        for t in range(1, len(tags)):
            score += self.transition[tags[t - 1], tags[t]] + emissions[t, tags[t]]
        score += self.end[tags[-1]]
        return score

    def log_likelihood(self, tokens: Sequence[str], tags: Sequence[int]) -> float:
        """Conditional log-likelihood of a gold tag-id sequence."""
        if len(tokens) != len(tags):
            raise ModelError("tokens and tags must have equal length")
        if not tokens:
            return 0.0
        emissions = self._emission_scores(lookup_ids(tokens, self.feature_map))
        _, _, log_z = self.forward_backward(emissions)
        return float(self._path_score(emissions, tags) - log_z)

    # -- training-time gradients ------------------------------------------------

    def gradient_step(
        self,
        tokens: Sequence[str],
        tags: Sequence[int],
        learning_rate: float,
        l2: float = 0.0,
    ) -> float:
        """One stochastic gradient ascent step on the conditional likelihood.

        Returns the sentence log-likelihood *before* the update.  Sparse
        emission updates touch only the features active in this sentence.
        The only call that may grow the feature map.
        """
        return self.update(extract_ids(tokens, self.feature_map), tags, learning_rate, l2)

    def update(
        self,
        feature_ids: List[List[int]],
        tags: Sequence[int],
        learning_rate: float,
        l2: float = 0.0,
    ) -> float:
        """:meth:`gradient_step` on a sentence whose features are already
        interned: a training loop extracts them once and reuses the lists."""
        if not feature_ids:
            return 0.0
        weights = self.emission  # triggers capacity growth
        emissions = self._emission_scores(feature_ids)
        alpha, beta, log_z = self.forward_backward(emissions)

        # Node marginals q[t, k] = p(y_t = k | x).
        node_marginal = np.exp(alpha + beta - log_z)
        log_likelihood = float(self._path_score(emissions, tags) - log_z)

        # Emission gradient: observed - expected per active feature.  Positions
        # share features ("lower=the", "prev=..."), so the order is the result.
        for t, ids in enumerate(feature_ids):
            if not ids:
                continue
            grad = -node_marginal[t]
            grad[tags[t]] += 1.0
            rows = weights[ids]
            mean = rows.sum(axis=0)
            mean /= len(ids)
            weights[ids] = rows + learning_rate * (grad - l2 * mean)

        # Transition gradient via edge marginals, all steps as one block whose
        # outer axis reduces slab after slab (0 + e1 + e2 + ..., as a loop would):
        # edge[t-1, i, j] = alpha[t-1, i] + transition[i, j] + (emissions + beta)[t, j].
        if len(tags) > 1:
            edge = alpha[:-1, :, None] + self.transition
            edge += (emissions[1:] + beta[1:])[:, None, :]
            edge -= log_z
            expected_transitions = np.add.reduce(np.exp(edge, out=edge), axis=0)
            observed_transitions = np.zeros_like(self.transition)
            for t in range(1, len(tags)):
                observed_transitions[tags[t - 1], tags[t]] += 1.0
            self.transition += learning_rate * (
                observed_transitions - expected_transitions - l2 * self.transition
            )

        # Start/end gradients.
        start_grad = -node_marginal[0]
        start_grad[tags[0]] += 1.0
        self.start += learning_rate * start_grad
        end_grad = -node_marginal[-1]
        end_grad[tags[-1]] += 1.0
        self.end += learning_rate * end_grad
        return log_likelihood
