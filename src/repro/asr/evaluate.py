"""ASR evaluation: word error rate and noise-robustness sweeps.

WER is the standard ASR metric (Levenshtein distance over words / reference
length).  The robustness sweep re-synthesizes an utterance set at increasing
noise levels and reports the WER curve — the degradation study any real ASR
release ships with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.asr.audio import Synthesizer
from repro.asr.decoder import Decoder
from repro.errors import ConfigurationError, DecodingError


def word_edit_distance(reference: Sequence[str], hypothesis: Sequence[str]) -> Tuple[int, int, int]:
    """(substitutions, deletions, insertions) of the minimal alignment."""
    n_ref = len(reference)
    n_hyp = len(hypothesis)
    # dp[i][j] = (cost, subs, dels, ins)
    dp = [[(0, 0, 0, 0)] * (n_hyp + 1) for _ in range(n_ref + 1)]
    for i in range(1, n_ref + 1):
        dp[i][0] = (i, 0, i, 0)
    for j in range(1, n_hyp + 1):
        dp[0][j] = (j, 0, 0, j)
    for i in range(1, n_ref + 1):
        for j in range(1, n_hyp + 1):
            if reference[i - 1] == hypothesis[j - 1]:
                dp[i][j] = dp[i - 1][j - 1]
                continue
            sub_cost, subs, dels, ins = dp[i - 1][j - 1]
            del_cost = dp[i - 1][j]
            ins_cost = dp[i][j - 1]
            best = min(
                (sub_cost + 1, subs + 1, dels, ins),
                (del_cost[0] + 1, del_cost[1], del_cost[2] + 1, del_cost[3]),
                (ins_cost[0] + 1, ins_cost[1], ins_cost[2], ins_cost[3] + 1),
            )
            dp[i][j] = best
    _, subs, dels, ins = dp[n_ref][n_hyp]
    return subs, dels, ins


@dataclass(frozen=True)
class WERResult:
    """Aggregate recognition quality over an utterance set."""

    substitutions: int
    deletions: int
    insertions: int
    reference_words: int
    exact_sentences: int
    total_sentences: int

    @property
    def wer(self) -> float:
        """Word error rate; 0.0 is perfect, can exceed 1.0."""
        if self.reference_words == 0:
            return 0.0
        errors = self.substitutions + self.deletions + self.insertions
        return errors / self.reference_words

    @property
    def sentence_accuracy(self) -> float:
        if self.total_sentences == 0:
            return 0.0
        return self.exact_sentences / self.total_sentences


def evaluate_wer(
    decoder: Decoder,
    sentences: Sequence[str],
    synthesizer: Synthesizer,
) -> WERResult:
    """Synthesize each sentence, decode it, and accumulate WER counts."""
    if not sentences:
        raise ConfigurationError("need at least one evaluation sentence")
    subs = dels = ins = ref_words = exact = 0
    for sentence in sentences:
        reference = sentence.split()
        try:
            hypothesis = decoder.decode_waveform(synthesizer.synthesize(sentence)).words
        except DecodingError:
            # Beam collapse at extreme noise: score as deleting everything.
            hypothesis = ()
        s, d, i = word_edit_distance(reference, list(hypothesis))
        subs += s
        dels += d
        ins += i
        ref_words += len(reference)
        exact += list(hypothesis) == reference
    return WERResult(subs, dels, ins, ref_words, exact, len(sentences))


def noise_robustness_sweep(
    decoder: Decoder,
    sentences: Sequence[str],
    noise_levels: Sequence[float] = (0.0, 0.02, 0.05, 0.1, 0.2),
) -> Dict[float, WERResult]:
    """WER at each synthesis noise level (degradation curve); every level's
    synthesizer is seeded 777, so levels differ only in their noise."""
    results: Dict[float, WERResult] = {}
    for level in noise_levels:
        synthesizer = Synthesizer(noise_level=level, seed=777)
        results[level] = evaluate_wer(decoder, sentences, synthesizer)
    return results
