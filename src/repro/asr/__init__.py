"""Automatic Speech Recognition service (Sphinx/Kaldi/RASR replacement).

The full pipeline: :class:`Synthesizer` (test audio) → :class:`FeatureExtractor`
(MFCC) → :class:`GMMAcousticModel` or :class:`DNNAcousticModel` (scoring) →
:class:`Decoder` (HMM Viterbi search with a bigram LM).
"""

from repro.asr.evaluate import (
    WERResult,
    evaluate_wer,
    noise_robustness_sweep,
    word_edit_distance,
)
from repro.asr.streaming import StreamingDecoder, StreamingFeatureExtractor
from repro.asr.vad import StreamingEndpointer
from repro.asr.acoustic import (
    DNNAcousticModel,
    GMMAcousticModel,
    N_EMISSION_STATES,
    STATES_PER_PHONEME,
    TrainingData,
    collect_training_data,
    phoneme_state_id,
    train_dnn_acoustic_model,
    train_gmm_acoustic_model,
)
from repro.asr.audio import SAMPLE_RATE, Synthesizer, Waveform
from repro.asr.decoder import DecodeResult, Decoder
from repro.asr.dnn import DeepNeuralNetwork, DNNConfig
from repro.asr.features import FeatureExtractor
from repro.asr.gmm import DiagonalGMM, fit_gmm
from repro.asr.lm import BigramLanguageModel
from repro.asr.phonemes import N_PHONEMES, PHONEMES, pronounce

__all__ = [
    "BigramLanguageModel",
    "WERResult",
    "evaluate_wer",
    "noise_robustness_sweep",
    "word_edit_distance",
    "DNNAcousticModel",
    "DNNConfig",
    "DecodeResult",
    "Decoder",
    "DeepNeuralNetwork",
    "DiagonalGMM",
    "FeatureExtractor",
    "GMMAcousticModel",
    "N_EMISSION_STATES",
    "N_PHONEMES",
    "PHONEMES",
    "SAMPLE_RATE",
    "STATES_PER_PHONEME",
    "StreamingDecoder",
    "StreamingEndpointer",
    "StreamingFeatureExtractor",
    "Synthesizer",
    "TrainingData",
    "Waveform",
    "collect_training_data",
    "fit_gmm",
    "phoneme_state_id",
    "pronounce",
    "train_dnn_acoustic_model",
    "train_gmm_acoustic_model",
]
