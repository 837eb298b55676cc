"""ASR toolkit tour: n-best, confidences, streaming, robustness.

Everything a speech developer would poke at before adopting the recognizer.

Run with::

    python examples/asr_toolkit.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.asr import (
    BigramLanguageModel,
    Decoder,
    Synthesizer,
    collect_training_data,
    noise_robustness_sweep,
    train_gmm_acoustic_model,
)

SENTENCES = [
    "set my alarm for eight am",
    "what is the capital of italy",
    "who was elected president",
    "play some music now",
    "navigate to the airport",
]


def main() -> None:
    print("Training acoustic + language models...")
    data = collect_training_data(SENTENCES, repetitions=4)
    acoustic = train_gmm_acoustic_model(data)
    decoder = Decoder(acoustic, BigramLanguageModel(SENTENCES))
    synthesizer = Synthesizer(seed=777)

    text = SENTENCES[0]
    wave = synthesizer.synthesize(text)

    print(f"\nN-best hypotheses for {text!r}:")
    nbest = decoder.decode_nbest(wave)
    for hypothesis, confidence in zip(nbest, Decoder.nbest_confidences(nbest)):
        print(f"  {confidence:5.2f}  {hypothesis.text}")

    print("\nStreaming recognition (partial hypotheses as audio arrives):")
    from repro.asr import StreamingDecoder

    streaming = StreamingDecoder(decoder)
    previous = ""
    for start in range(0, len(wave.samples), 4800):
        streaming.feed(wave.samples[start : start + 4800])
        partial = streaming.partial()
        if partial and partial != previous:
            print(f"  t={start / 16000:4.2f}s  {partial!r}")
            previous = partial
    print(f"  final:  {streaming.finish().text!r}")

    print("\nNoise robustness (WER by synthesis noise level):")
    for level, result in noise_robustness_sweep(
        decoder, SENTENCES, noise_levels=(0.0, 0.1, 0.3)
    ).items():
        print(f"  noise {level:4.2f}: WER {result.wer:.3f} "
              f"({result.exact_sentences}/{result.total_sentences} exact)")


if __name__ == "__main__":
    main()
