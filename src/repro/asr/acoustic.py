"""Acoustic models: per-state GMMs and the hybrid DNN, plus their trainers.

The acoustic state space is ``(N_PHONEMES + 1) * STATES_PER_PHONEME`` HMM
emission states — three left-to-right states per phoneme plus a silence
unit.  Both model families expose ``emission_scores(features)`` returning a
``(T, n_states)`` matrix of emission log-likelihoods; the Viterbi decoder is
agnostic to which family produced them, mirroring how Sirius swaps Sphinx's
GMM for Kaldi/RASR's DNN.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.asr.audio import SAMPLE_RATE, Synthesizer
from repro.asr.dnn import DeepNeuralNetwork, DNNConfig
from repro.asr.features import FeatureConfig, FeatureExtractor
from repro.asr.gmm import DiagonalGMM, fit_gmm, log_sum_exp, record_scoring
from repro.asr.phonemes import N_PHONEMES, PHONEME_INDEX
from repro.errors import ModelError

STATES_PER_PHONEME = 3
SILENCE = "SIL"
SILENCE_INDEX = N_PHONEMES  # appended after the real phonemes
N_UNITS = N_PHONEMES + 1
N_EMISSION_STATES = N_UNITS * STATES_PER_PHONEME


def phoneme_state_id(symbol: str, sub_state: int) -> int:
    """Emission-state id for (phoneme, sub-state)."""
    if not 0 <= sub_state < STATES_PER_PHONEME:
        raise ModelError(f"sub_state out of range: {sub_state}")
    unit = SILENCE_INDEX if symbol == SILENCE else PHONEME_INDEX[symbol]
    return unit * STATES_PER_PHONEME + sub_state


class AcousticModel(Protocol):
    """Anything that scores feature frames against emission states."""

    def emission_scores(self, features: np.ndarray) -> np.ndarray:
        """(T, N_EMISSION_STATES) emission log-likelihoods."""
        ...


@dataclass
class GMMAcousticModel:
    """One diagonal GMM per emission state (the Sphinx-style model).

    States that had too little training data score through the ``fallback``
    GMM (fit on all frames) with ``fallback_penalty`` subtracted, so rare
    states stay reachable without being preferred.

    Scoring runs on one *bank* built at construction: the components of
    every GMM (the fallback included) stacked into a single ΣK-component
    :class:`DiagonalGMM`, members ordered by component count so that each
    run of equal K reshapes to ``(T, members, K)`` for the log-sum-exp.
    An utterance is then one :meth:`DiagonalGMM.component_log_likelihood`
    call and one :func:`~repro.asr.gmm.log_sum_exp` per distinct K instead
    of one :meth:`DiagonalGMM.log_likelihood` call per state, and gives the
    same bits as those calls — for the whole utterance or for any split of
    its rows.  Mutating ``gmms`` or ``fallback`` afterwards does not
    rebuild it.
    """

    gmms: Dict[int, DiagonalGMM]
    fallback: Optional[DiagonalGMM] = None
    fallback_penalty: float = 8.0

    def __post_init__(self) -> None:
        # (GMM, emission states it scores, penalty subtracted from its score)
        members = [(gmm, [state], 0.0) for state, gmm in sorted(self.gmms.items())]
        if self.fallback is not None:
            untrained = [s for s in range(N_EMISSION_STATES) if s not in self.gmms]
            members.append((self.fallback, untrained, self.fallback_penalty))
        if not members:
            raise ModelError("acoustic model has neither state GMMs nor a fallback")
        # Stable, so members of equal K stay in state order.
        members.sort(key=lambda member: member[0].n_components)
        bank = [gmm for gmm, _, _ in members]
        self._n_members = len(bank)
        if any(gmm.dimension != bank[0].dimension for gmm in bank):
            raise ModelError("all GMMs of an acoustic model must share one dimension")
        # One ΣK-component "mixture" whose component scores are those of
        # every member; its weights do not sum to one and it is never
        # summed whole, only per member below.
        self._bank = DiagonalGMM(
            np.concatenate([gmm.means for gmm in bank]),
            np.concatenate([gmm.precisions for gmm in bank]),
            np.concatenate([gmm.log_weights for gmm in bank]),
        )
        # Scored emission states, the bank member each reads, its penalty.
        states: List[int] = []
        feeds: List[int] = []
        penalties: List[float] = []
        for member, (_, scored, penalty) in enumerate(members):
            states += scored
            feeds += [member] * len(scored)
            penalties += [penalty] * len(scored)
        self._states = np.array(states)
        self._feeds = np.array(feeds)
        self._penalties = np.array(penalties)
        # Per run of equal K: (K, first member, members, first bank row).
        self._groups: List[Tuple[int, int, int, int]] = []
        first_member = first_row = 0
        for k, run in itertools.groupby(gmm.n_components for gmm in bank):
            n = len(list(run))
            self._groups.append((k, first_member, n, first_row))
            first_member, first_row = first_member + n, first_row + n * k

    def emission_scores(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(features)
        n_frames = len(features)
        # States with neither a GMM nor a fallback stay dead.
        scores = np.full((n_frames, N_EMISSION_STATES), -1e30)
        component = self._bank.component_log_likelihood(features)  # (T, ΣK)
        member_scores = np.empty((n_frames, self._n_members))
        for k, first_member, n, first_row in self._groups:
            grouped = component[:, first_row : first_row + n * k].reshape(n_frames, n, k)
            member_scores[:, first_member : first_member + n] = log_sum_exp(grouped)
            record_scoring(n_frames, k, self._bank.dimension, mixtures=n)
        scores[:, self._states] = member_scores[:, self._feeds] - self._penalties
        return scores


@dataclass
class DNNAcousticModel:
    """Hybrid DNN/HMM model: scaled posteriors as emission scores."""

    network: DeepNeuralNetwork

    def emission_scores(self, features: np.ndarray) -> np.ndarray:
        if self.network.config.n_classes != N_EMISSION_STATES:
            raise ModelError("DNN output size must match emission-state count")
        return self.network.emission_log_likelihood(features)


# ---------------------------------------------------------------------------
# Frame labeling from synthesis alignments
# ---------------------------------------------------------------------------


def label_frames(
    alignment: Sequence[Tuple[str, int, int]],
    n_frames: int,
    n_samples: int,
    feature_config: FeatureConfig,
    sample_rate: int = SAMPLE_RATE,
) -> np.ndarray:
    """Assign each feature frame an emission-state label.

    A frame is labeled by the phoneme covering its center sample; each
    phoneme segment splits evenly into its three HMM sub-states.  Samples
    not covered by any phoneme (inter-word pauses) label as silence.
    """
    hop = int(feature_config.frame_hop * sample_rate)
    frame_size = int(feature_config.frame_length * sample_rate)
    labels = np.full(n_frames, phoneme_state_id(SILENCE, 1), dtype=np.int64)
    centers = np.arange(n_frames) * hop + frame_size // 2
    for symbol, start, end in alignment:
        if end <= start:
            continue
        # Frames whose center falls in [start, end); a later segment
        # overwrites an earlier one where they overlap.
        first, last = np.searchsorted(centers, (start, end))
        thirds = (3 * (centers[first:last] - start) / (end - start)).astype(np.int64)
        labels[first:last] = phoneme_state_id(symbol, 0) + np.minimum(thirds, 2)
    return labels


@dataclass
class TrainingData:
    """Pooled labeled frames for acoustic-model training."""

    features: np.ndarray  # (N, D)
    labels: np.ndarray    # (N,)


#: Noise levels cycled across training takes (multi-condition training, so
#: the models stay robust from clean audio up to heavy noise).
TRAINING_NOISE_LEVELS = (0.0, 0.02, 0.05, 0.1)


def collect_training_data(
    sentences: Iterable[str],
    synthesizer: Optional[Synthesizer] = None,
    extractor: Optional[FeatureExtractor] = None,
    repetitions: int = 3,
) -> TrainingData:
    """Synthesize sentences (several noisy takes each) and label every frame."""
    extractor = extractor if extractor is not None else FeatureExtractor()
    feature_blocks: List[np.ndarray] = []
    label_blocks: List[np.ndarray] = []
    sentences = list(sentences)
    for repetition in range(repetitions):
        noise = TRAINING_NOISE_LEVELS[repetition % len(TRAINING_NOISE_LEVELS)]
        synth = (
            synthesizer
            if synthesizer is not None
            else Synthesizer(seed=1000 + repetition, noise_level=noise)
        )
        for sentence in sentences:
            waveform, alignment = synth.aligned_synthesize(sentence)
            features = extractor.extract(waveform)
            labels = label_frames(
                alignment, len(features), len(waveform), extractor.config,
                waveform.sample_rate,
            )
            feature_blocks.append(features)
            label_blocks.append(labels)
    if not feature_blocks:
        raise ModelError("no training sentences supplied")
    return TrainingData(np.vstack(feature_blocks), np.concatenate(label_blocks))


def train_gmm_acoustic_model(
    data: TrainingData,
    n_components: int = 2,
    n_iterations: int = 6,
) -> GMMAcousticModel:
    """Fit a per-state diagonal GMM wherever the state has enough frames."""
    gmms: Dict[int, DiagonalGMM] = {}
    for state in range(N_EMISSION_STATES):
        member_rows = data.features[data.labels == state]
        if len(member_rows) < 2 * n_components:
            continue
        components = min(n_components, max(1, len(member_rows) // 8))
        gmms[state] = fit_gmm(member_rows, components, n_iterations, seed=state)
    if not gmms:
        raise ModelError("no emission state had enough training frames")
    fallback = fit_gmm(
        data.features, n_components=min(4, len(data.features) // 8), seed=12345
    )
    return GMMAcousticModel(gmms, fallback=fallback)


def train_dnn_acoustic_model(
    data: TrainingData,
    hidden_sizes: Tuple[int, ...] = (256, 256),
    epochs: int = 20,
    feature_dim: Optional[int] = None,
) -> DNNAcousticModel:
    """Train the hybrid DNN on the same labeled frames."""
    dimension = feature_dim if feature_dim is not None else data.features.shape[1]
    config = DNNConfig(
        input_dim=dimension,
        n_classes=N_EMISSION_STATES,
        hidden_sizes=hidden_sizes,
        epochs=epochs,
    )
    network = DeepNeuralNetwork(config)
    network.fit(data.features, data.labels)
    return DNNAcousticModel(network)
