"""The seven Sirius Suite kernels (paper Table 4).

| Service | Kernel   | Baseline source            | Granularity               |
|---------|----------|----------------------------|---------------------------|
| ASR     | gmm      | repro.asr.acoustic         | per HMM state             |
| ASR     | dnn      | repro.asr.dnn              | per matrix multiplication |
| QA      | stemmer  | repro.qa.stemmer           | per word                  |
| QA      | regex    | repro.regex                | per (pattern, sentence)   |
| QA      | crf      | repro.qa.crf               | per sentence              |
| IMM     | fe       | repro.imm.hessian          | per image tile            |
| IMM     | fd       | repro.imm.surf             | per keypoint              |

Every baseline hot path carries a :func:`repro.obs.counters.record_work`
hook with an analytic flops/bytes model documented next to its formula
(dense kernels count real multiply-adds over float64 operands; the branchy
string kernels — stemmer, regex — count one op per character examined).
Under a tracer, :meth:`repro.suite.base.Kernel.execute` wraps the run in a
``kernel`` span, so ``repro bench`` records per-kernel counter totals and
``repro trace-report --roofline`` can place each kernel's measured
operational intensity on the :mod:`repro.platforms.roofline` model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.asr.acoustic import N_EMISSION_STATES, GMMAcousticModel
from repro.asr.dnn import DeepNeuralNetwork, DNNConfig
from repro.asr.gmm import DiagonalGMM, fit_gmm
from repro.imm.hessian import FastHessianDetector, Keypoint
from repro.imm.image import Image, SceneGenerator
from repro.imm.integral import integral_image
from repro.imm.surf import Surf
from repro.qa.crf import LinearChainCRF, default_model, generate_corpus
from repro.qa.stemmer import stem
from repro.regex.engine import Pattern
from repro.regex.patterns import build_patterns, build_sentences
from repro.suite.base import Kernel

# ---------------------------------------------------------------------------
# ASR kernels
# ---------------------------------------------------------------------------


@dataclass
class GMMInputs:
    """A bank of per-HMM-state GMMs plus the frames to score."""

    gmms: List[DiagonalGMM]
    features: np.ndarray

    def __post_init__(self) -> None:
        # The pipeline's scorer: GMM i scores emission state i, and all of
        # them are stacked in one bank.
        self.model = GMMAcousticModel(dict(enumerate(self.gmms)))

    def score(self) -> float:
        """Sum of every state's log-likelihood over every frame."""
        scores = self.model.emission_scores(self.features)
        return float(scores[:, : len(self.gmms)].sum())


class GMMKernel(Kernel):
    """Acoustic scoring: every HMM state's GMM scores every frame, stacked in
    one bank as the pipeline scores them (``GMMAcousticModel``)."""

    name = "gmm"
    service = "ASR"
    granularity = "for each HMM state"
    port = "thread"

    def prepare(self, scale: float = 1.0) -> GMMInputs:
        rng = np.random.default_rng(7)
        # At most one GMM per emission state of the pipeline's model.
        n_states = min(max(int(32 * scale), 2), N_EMISSION_STATES)
        n_frames = max(int(64 * scale), 4)
        dimension = 26
        gmms = []
        for state in range(n_states):
            data = rng.normal(state % 5, 1.0, (64, dimension))
            gmms.append(fit_gmm(data, n_components=4, n_iterations=3, seed=state))
        features = rng.normal(0.0, 2.0, (n_frames, dimension))
        return GMMInputs(gmms, features)

    def run(self, inputs: GMMInputs) -> float:
        return inputs.score()


    def subset(self, inputs: GMMInputs, chunk: range) -> GMMInputs:
        return GMMInputs(inputs.gmms[chunk.start : chunk.stop], inputs.features)

    def count_items(self, inputs: GMMInputs) -> int:
        return len(inputs.gmms)


@dataclass
class DNNInputs:
    network: DeepNeuralNetwork
    batches: List[np.ndarray]  # pre-stacked input batches


class DNNKernel(Kernel):
    """Forward passes through the acoustic DNN, one batch per work item."""

    name = "dnn"
    service = "ASR"
    granularity = "for each matrix multiplication"
    port = "thread"

    def prepare(self, scale: float = 1.0) -> DNNInputs:
        rng = np.random.default_rng(11)
        config = DNNConfig(input_dim=26, n_classes=99, hidden_sizes=(256, 256), context=2)
        network = DeepNeuralNetwork(config)
        n_batches = max(int(16 * scale), 2)
        batches = [
            rng.normal(size=(32, config.stacked_dim)) for _ in range(n_batches)
        ]
        return DNNInputs(network, batches)

    def run(self, inputs: DNNInputs) -> float:
        return sum(float(inputs.network.forward(batch).sum()) for batch in inputs.batches)


    def subset(self, inputs: DNNInputs, chunk: range) -> DNNInputs:
        return DNNInputs(inputs.network, inputs.batches[chunk.start : chunk.stop])

    def count_items(self, inputs: DNNInputs) -> int:
        return len(inputs.batches)


# ---------------------------------------------------------------------------
# QA kernels
# ---------------------------------------------------------------------------

_WORD_STEMS = [
    "nation", "relate", "operate", "conform", "hope", "adjust", "depend",
    "active", "sense", "form", "decide", "triplicate", "electric", "motor",
    "feudal", "radical",
]
_SUFFIXES = ["al", "ance", "ation", "izer", "alism", "iveness", "fulness",
             "ousli", "ement", "iviti", "ing", "ed", "s", "es", "ness", ""]


def build_word_list(count: int) -> List[str]:
    """Deterministic word list (seeded 3) in the spirit of Table 4's
    4M-word input."""
    rng = random.Random(3)
    return [
        rng.choice(_WORD_STEMS) + rng.choice(_SUFFIXES) for _ in range(count)
    ]


class StemmerKernel(Kernel):
    """Porter-stem a word list, one word per work item."""

    name = "stemmer"
    service = "QA"
    granularity = "for each individual word"

    #: Default word count; Table 4 uses 4M, scaled down for Python runtimes.
    base_words = 20_000

    def prepare(self, scale: float = 1.0) -> List[str]:
        return build_word_list(max(int(self.base_words * scale), 10))

    def run(self, inputs: List[str]) -> float:
        return float(sum(len(stem(word)) for word in inputs))


    def subset(self, inputs: List[str], chunk: range) -> List[str]:
        return inputs[chunk.start : chunk.stop]

    def count_items(self, inputs: List[str]) -> int:
        return len(inputs)


@dataclass
class RegexInputs:
    patterns: List[Pattern]
    sentences: List[str]
    pairs: List[Tuple[int, int]]


class RegexKernel(Kernel):
    """Match 100 expressions against 400 sentences (Table 4's input set)."""

    name = "regex"
    service = "QA"
    granularity = "for each regex-sentence pair"

    def prepare(self, scale: float = 1.0) -> RegexInputs:
        n_patterns = max(int(100 * min(scale, 1.0)), 5)
        n_sentences = max(int(400 * scale), 10)
        patterns = build_patterns(n_patterns)
        sentences = build_sentences(n_sentences)
        pairs = [(p, s) for p in range(n_patterns) for s in range(n_sentences)]
        return RegexInputs(patterns, sentences, pairs)

    def run(self, inputs: RegexInputs) -> float:
        hits = 0
        for pattern_index, sentence_index in inputs.pairs:
            if inputs.patterns[pattern_index].test(inputs.sentences[sentence_index]):
                hits += 1
        return float(hits)


    def subset(self, inputs: RegexInputs, chunk: range) -> RegexInputs:
        return RegexInputs(
            inputs.patterns, inputs.sentences, inputs.pairs[chunk.start : chunk.stop]
        )

    def count_items(self, inputs: RegexInputs) -> int:
        return len(inputs.pairs)


@dataclass
class CRFInputs:
    model: LinearChainCRF
    sentences: List[Tuple[str, ...]]


class CRFKernel(Kernel):
    """CRF Viterbi decoding, one sentence per work item (CoNLL-style)."""

    name = "crf"
    service = "QA"
    granularity = "for each sentence"

    def prepare(self, scale: float = 1.0) -> CRFInputs:
        n_sentences = max(int(200 * scale), 5)
        corpus = generate_corpus(n_sentences, seed=21)
        return CRFInputs(default_model(), [s.tokens for s in corpus])

    def run(self, inputs: CRFInputs) -> float:
        # Every run starts from an empty lexeme table, so a run (serial or
        # one chunk of a port) never times word types an earlier run looked
        # up.
        inputs.model.feature_map.clear_lexemes()
        return float(
            sum(len(inputs.model.decode(tokens)) for tokens in inputs.sentences)
        )


    def subset(self, inputs: CRFInputs, chunk: range) -> CRFInputs:
        # The port forks, so each chunk clears and warms its own copy of the
        # model's lexeme table.
        return CRFInputs(inputs.model, inputs.sentences[chunk.start : chunk.stop])

    def count_items(self, inputs: CRFInputs) -> int:
        return len(inputs.sentences)


# ---------------------------------------------------------------------------
# IMM kernels
# ---------------------------------------------------------------------------


@dataclass
class FEInputs:
    tiles: List[Image]
    detector: FastHessianDetector


class FEKernel(Kernel):
    """SURF feature extraction over image tiles (the paper's tiled port)."""

    name = "fe"
    service = "IMM"
    granularity = "for each image tile"

    def prepare(self, scale: float = 1.0) -> FEInputs:
        side = max(int(128 * np.sqrt(scale)), 64)
        generator = SceneGenerator(height=side, width=side, seed=13)
        n_images = max(int(2 * scale), 1)
        tiles: List[Image] = []
        for index in range(n_images):
            tiles.extend(t for _, _, t in generator.scene(index).tiles(64))
        return FEInputs(tiles, FastHessianDetector())

    def run(self, inputs: FEInputs) -> float:
        return float(
            sum(len(inputs.detector.detect(tile)) for tile in inputs.tiles)
        )


    def subset(self, inputs: FEInputs, chunk: range) -> FEInputs:
        return FEInputs(inputs.tiles[chunk.start : chunk.stop], inputs.detector)

    def count_items(self, inputs: FEInputs) -> int:
        return len(inputs.tiles)


@dataclass
class FDInputs:
    ii: np.ndarray
    image: Image
    keypoints: List[Keypoint]
    surf: Surf


class FDKernel(Kernel):
    """SURF feature description (the pipeline's ``Surf.describe``), one
    keypoint per work item."""

    name = "fd"
    service = "IMM"
    granularity = "for each keypoint"
    port = "thread"

    def prepare(self, scale: float = 1.0) -> FDInputs:
        generator = SceneGenerator(seed=17)
        image = generator.scene(0)
        detector = FastHessianDetector(threshold=5e-6, max_keypoints=None)
        keypoints = detector.detect(image)
        target = max(int(80 * scale), 4)
        while len(keypoints) < target:
            keypoints = keypoints + keypoints  # repeat work items to scale up
        return FDInputs(integral_image(image.pixels), image, keypoints[:target], Surf())

    def run(self, inputs: FDInputs) -> float:
        descriptors = inputs.surf.describe(inputs.image, inputs.keypoints, ii=inputs.ii)
        return float(np.abs(descriptors).sum())


    def subset(self, inputs: FDInputs, chunk: range) -> FDInputs:
        return FDInputs(
            inputs.ii, inputs.image, inputs.keypoints[chunk.start : chunk.stop], inputs.surf
        )

    def count_items(self, inputs: FDInputs) -> int:
        return len(inputs.keypoints)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

KERNEL_CLASSES = (
    GMMKernel,
    DNNKernel,
    StemmerKernel,
    RegexKernel,
    CRFKernel,
    FEKernel,
    FDKernel,
)


def all_kernels() -> List[Kernel]:
    """Fresh instances of all seven kernels, Table 4 order."""
    return [cls() for cls in KERNEL_CLASSES]


def kernel_by_name(name: str) -> Kernel:
    for cls in KERNEL_CLASSES:
        if cls.name == name:
            return cls()
    raise KeyError(f"unknown kernel: {name!r}")
