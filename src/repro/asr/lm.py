"""Bigram language model with add-k smoothing (the ASR "Language Model" box)."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence

from repro.errors import ModelError

BOS = "<s>"
EOS = "</s>"
#: Add-k smoothing mass given to every bigram.
ADD_K = 0.1


class BigramLanguageModel:
    """P(word | previous word) over a closed vocabulary.

    >>> lm = BigramLanguageModel(["set my alarm", "set my timer"])
    >>> lm.log_prob("my", "set") > lm.log_prob("alarm", "set")
    True
    """

    def __init__(self, sentences: Iterable[str]):
        self._unigrams: Counter = Counter()
        self._bigrams: Dict[str, Counter] = defaultdict(Counter)
        n_sentences = 0
        for sentence in sentences:
            words = [w.lower() for w in sentence.split() if w]
            if not words:
                continue
            n_sentences += 1
            previous = BOS
            for word in words:
                self._unigrams[word] += 1
                self._bigrams[previous][word] += 1
                previous = word
            self._bigrams[previous][EOS] += 1
        if n_sentences == 0:
            raise ModelError("language model needs at least one sentence")
        self.vocabulary: List[str] = sorted(self._unigrams)
        self._vocab_size = len(self.vocabulary) + 1  # +1 for EOS

    def log_prob(self, word: str, previous: str = BOS) -> float:
        """Smoothed log P(word | previous)."""
        word = word.lower()
        previous = previous.lower() if previous not in (BOS, EOS) else previous
        context = self._bigrams.get(previous, Counter())
        numerator = context.get(word, 0) + ADD_K
        denominator = sum(context.values()) + ADD_K * self._vocab_size
        return math.log(numerator / denominator)

    def transition_matrix(self, words: Sequence[str]) -> "np.ndarray":
        """(V+1, V) matrix of log P(words[j] | row) for decoding.

        Row V is the BOS context; used by the Viterbi decoder to vectorize
        cross-word transitions.
        """
        import numpy as np

        # A row is one context: every cell is its floor, ``log_prob`` of an
        # unseen successor, but the context's explicit successors.  These
        # are the floats ``log_prob`` gives cell by cell, in O(V) a row.
        columns: Dict[str, List[int]] = defaultdict(list)
        for column, word in enumerate(words):
            columns[word.lower()].append(column)
        matrix = np.empty((len(words) + 1, len(words)))
        for row, previous in enumerate([word.lower() for word in words] + [BOS]):
            context = self._bigrams.get(previous, Counter())
            denominator = sum(context.values()) + ADD_K * self._vocab_size
            matrix[row] = math.log(ADD_K / denominator)
            for successor, count in context.items():
                if successor in columns:
                    matrix[row, columns[successor]] = math.log((count + ADD_K) / denominator)
        return matrix

    def eos_vector(self, words: Sequence[str]) -> "np.ndarray":
        """(V,) log P(EOS | word) for final-state scoring."""
        import numpy as np

        return np.array([self.log_prob(EOS, word) for word in words])
