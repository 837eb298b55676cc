"""Feed-forward DNN acoustic scorer (the paper's DNN kernel).

Scoring "amounts to one forward pass through the network" (Section 2.3.1):
stacked context frames in, log state posteriors out, converted to HMM
emission scores by dividing out the state prior (the standard hybrid
DNN/HMM construction).  Training is plain mini-batch SGD with backprop on
frame-level alignments, which the synthesizer provides exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ModelError
from repro.obs.counters import record_work

#: SGD step size at epoch 0 (it decays as 1 / (1 + epoch / 4)).
LEARNING_RATE = 0.01
BATCH_SIZE = 128
#: Seeds the weight initialisation; ``SEED + 1`` seeds the batch order.
SEED = 99


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    peak = logits.max(axis=1, keepdims=True)
    shifted = logits - peak
    # `shifted` is already max-subtracted, so exp cannot overflow here.
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@dataclass
class DNNConfig:
    """Network shape and training hyperparameters."""

    input_dim: int
    n_classes: int
    hidden_sizes: Tuple[int, ...] = (128, 128)
    context: int = 2           # frames of context on each side
    epochs: int = 8

    @property
    def stacked_dim(self) -> int:
        return self.input_dim * (2 * self.context + 1)


class DeepNeuralNetwork:
    """An MLP with ReLU hidden layers and a softmax output."""

    def __init__(self, config: DNNConfig):
        self.config = config
        rng = np.random.default_rng(SEED)
        sizes = [config.stacked_dim, *config.hidden_sizes, config.n_classes]
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, (fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        # Log state priors, estimated from training labels; uniform until fit.
        self.log_priors = np.full(config.n_classes, -np.log(config.n_classes))

    # -- context stacking ---------------------------------------------------------

    def stack_context(self, features: np.ndarray) -> np.ndarray:
        """(T, D) frames → (T, D*(2c+1)) stacked windows with edge padding."""
        context = self.config.context
        if features.ndim != 2 or features.shape[1] != self.config.input_dim:
            raise ModelError("features must be (T, input_dim)")
        padded = np.pad(features, ((context, context), (0, 0)), mode="edge")
        slices = [
            padded[offset : offset + len(features)]
            for offset in range(2 * context + 1)
        ]
        return np.hstack(slices)

    # -- inference ----------------------------------------------------------------

    def forward(self, stacked: np.ndarray) -> np.ndarray:
        """Logits for pre-stacked input (the benchmark-visible hot loop)."""
        activation = stacked
        last = len(self.weights) - 1
        # Counter model: a (B, n) @ (n, k) matmul is 2*B*n*k flops plus
        # B*k for the bias add (and ReLU comparison on hidden layers);
        # bytes touch both operands and the output once, float64.
        batch = stacked.shape[0] if stacked.ndim == 2 else 1
        flops = 0
        moved = 0
        for weight in self.weights:
            fan_in, fan_out = weight.shape
            flops += 2 * batch * fan_in * fan_out + 2 * batch * fan_out
            moved += 8 * (batch * fan_in + fan_in * fan_out + batch * fan_out)
        record_work(flops=flops, mem_bytes=moved, items=batch)
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            activation = activation @ weight + bias
            if index != last:
                activation = _relu(activation)
        return activation

    def log_posteriors(self, features: np.ndarray) -> np.ndarray:
        """(T, n_classes) log p(class | frame)."""
        return _log_softmax(self.forward(self.stack_context(features)))

    def emission_log_likelihood(self, features: np.ndarray) -> np.ndarray:
        """Hybrid scaled likelihood: log p(x|s) ∝ log p(s|x) - log p(s)."""
        return self.log_posteriors(features) - self.log_priors[None, :]

    # -- training -------------------------------------------------------------------

    def fit(self, features: np.ndarray, labels: np.ndarray) -> List[float]:
        """Mini-batch SGD on cross-entropy; returns per-epoch mean loss."""
        if len(features) != len(labels):
            raise ModelError("features and labels must align")
        config = self.config
        stacked = self.stack_context(features)
        labels = np.asarray(labels, dtype=np.int64)

        counts = np.bincount(labels, minlength=config.n_classes).astype(float)
        self.log_priors = np.log((counts + 1.0) / (counts.sum() + config.n_classes))

        rng = np.random.default_rng(SEED + 1)
        losses: List[float] = []
        for epoch in range(config.epochs):
            order = rng.permutation(len(stacked))
            epoch_loss = 0.0
            n_batches = 0
            rate = LEARNING_RATE / (1.0 + epoch / 4.0)
            for start in range(0, len(order), BATCH_SIZE):
                batch = order[start : start + BATCH_SIZE]
                epoch_loss += self._sgd_step(stacked[batch], labels[batch], rate)
                n_batches += 1
            losses.append(epoch_loss / max(n_batches, 1))
        return losses

    def _sgd_step(self, x: np.ndarray, y: np.ndarray, rate: float) -> float:
        # Forward, keeping activations for backprop.
        activations = [x]
        pre_activations = []
        activation = x
        last = len(self.weights) - 1
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            z = activation @ weight + bias
            pre_activations.append(z)
            activation = _relu(z) if index != last else z
            activations.append(activation)

        log_probs = _log_softmax(activations[-1])
        n = len(x)
        loss = -float(log_probs[np.arange(n), y].mean())

        # Backward.
        grad = np.exp(log_probs)
        grad[np.arange(n), y] -= 1.0
        grad /= n
        for index in range(len(self.weights) - 1, -1, -1):
            grad_w = activations[index].T @ grad
            grad_b = grad.sum(axis=0)
            if index > 0:
                grad = (grad @ self.weights[index].T) * (pre_activations[index - 1] > 0)
            self.weights[index] -= rate * grad_w
            self.biases[index] -= rate * grad_b
        return loss
