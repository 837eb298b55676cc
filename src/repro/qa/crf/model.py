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

from repro.obs.counters import record_work
from repro.qa.crf.features import FeatureMap, lookup_ids
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

    def __init__(self):
        self.feature_map = FeatureMap()
        self.n_tags = N_TAGS
        # Emission weights grow with the feature map; the table ends in one
        # extra all-zero row, so id -1 pads a ragged feature-id matrix.
        self._emission = np.zeros((1, N_TAGS))
        self.transition = np.zeros((N_TAGS, N_TAGS))
        self.start = np.zeros(N_TAGS)
        self.end = np.zeros(N_TAGS)

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
        return self._emission.take(id_matrix, axis=0).sum(axis=1)

    # -- inference ----------------------------------------------------------------

    def decode(self, tokens: Sequence[str]) -> List[str]:
        """Most likely tag sequence (Viterbi): a lattice of one sentence,
        charged as one decode."""
        if not tokens:
            return []
        record_decode_work(len(tokens), self.n_tags)
        return self.decode_lattice([tokens])[0]

    def decode_lattice(self, sentences: Sequence[Sequence[str]]) -> List[List[str]]:
        """Most likely tag sequence of every sentence, decoded in lock step.

        Sentences are ordered longest first (stably), so the ones still
        running at step t are a prefix of that order and each step is one
        set of numpy calls over all of them: per sentence the arithmetic of
        a lone Viterbi (``delta[:, None] + transition``, first-max
        ``argmax``, ``max``, ``+= emissions[t]``, ``+ end``), so the tags
        are the ones :meth:`decode` gives each sentence alone.  Emission
        rows are laid out step-major, which makes step t's rows one
        contiguous slice.  Charges no work: a caller charges
        :func:`record_decode_work` per sentence it presents.
        """
        lengths = list(map(len, sentences))
        tags: List[List[str]] = [[] for _ in sentences]
        live = len(lengths) - lengths.count(0)
        if not live:
            return tags
        # A reversed sort is still stable: equal lengths keep their order.
        order = sorted(range(len(sentences)), key=lengths.__getitem__, reverse=True)[:live]
        ids = [lookup_ids(sentences[index], self.feature_map) for index in order]
        # bounds[t]: step t's rows of the emission and backpointer tables,
        # one per sentence longer than t (a prefix of ``order``).
        bounds: List[Tuple[int, int]] = []
        rows: List[List[int]] = []
        running = live
        for t in range(lengths[order[0]]):
            while lengths[order[running - 1]] <= t:
                running -= 1
            bounds.append((len(rows), len(rows) + running))
            rows += [sentence[t] for sentence in ids[:running]]
        emissions = self._emission_scores(rows)
        n_tags = self.n_tags
        transition = self.transition
        backpointer = np.empty((len(rows), n_tags), dtype=np.intp)
        delta = self.start + emissions[:live]
        candidate = np.empty((live, n_tags, n_tags))
        running = live
        view, grid, scores = delta, delta[:, :, None], candidate
        for begin, end in bounds[1:]:
            if end - begin != running:
                running = end - begin
                view, grid, scores = delta[:running], delta[:running, :, None], candidate[:running]
            # scores[s, i, j] = delta[s, i] + transition[i, j]
            np.add(grid, transition, out=scores)
            scores.argmax(axis=1, out=backpointer[begin:end])
            scores.max(axis=1, out=view)
            view += emissions[begin:end]
        delta += self.end
        pointers = backpointer.tolist()
        for row, (index, tag) in enumerate(zip(order, delta.argmax(axis=1).tolist())):
            path = [tag]
            for begin, _ in bounds[lengths[index] - 1 : 0 : -1]:
                tag = pointers[begin + row][tag]
                path.append(tag)
            path.reverse()
            tags[index] = [TAGS[tag] for tag in path]
        return tags

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

    def _path_score(self, emissions: np.ndarray, tags: Sequence[int]) -> float:
        """Unnormalised score of one tag-id sequence."""
        score = self.start[tags[0]] + emissions[0, tags[0]]
        for t in range(1, len(tags)):
            score += self.transition[tags[t - 1], tags[t]] + emissions[t, tags[t]]
        score += self.end[tags[-1]]
        return score

    # -- training-time gradients ------------------------------------------------

    def update(
        self,
        feature_ids: List[List[int]],
        tags: Sequence[int],
        learning_rate: float,
        l2: float,
    ) -> float:
        """One stochastic gradient ascent step on the conditional likelihood.

        ``feature_ids`` are the sentence's already interned features (a
        training loop extracts them once and reuses the lists).  Returns the
        sentence log-likelihood *before* the update.  Sparse emission
        updates touch only the features active in this sentence.
        """
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
