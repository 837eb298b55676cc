"""The end-to-end Sirius pipeline (paper Figure 2).

Life of a query: audio → ASR → Query Classifier → (action back to device) or
(QA over the search corpus); an attached image additionally runs IMM.  Every
service records wall time, so the same object drives the latency studies
(Figures 7/8) and the cycle-breakdown analysis (Figure 9).

Since the serving-layer refactor this class is a thin facade: query
execution lives in :mod:`repro.serving` (Service wrappers, query-plan DAGs,
execution backends), and :meth:`process` / :meth:`process_all` delegate to a
lazily built :class:`~repro.serving.executor.PlanExecutor` while preserving
the original observable behaviour exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.asr import (
    BigramLanguageModel,
    Decoder,
    collect_training_data,
    train_dnn_acoustic_model,
    train_gmm_acoustic_model,
)
from repro.core.classifier import QueryClassifier
from repro.core.inputset import all_sentences
from repro.core.query import IPAQuery, SiriusResponse
from repro.errors import ConfigurationError
from repro.imm.database import ImageDatabase
from repro.imm.image import SceneGenerator
from repro.qa import QAEngine

#: Supported acoustic back-ends (paper: Sphinx GMM vs. Kaldi/RASR DNN).
GMM_BACKEND = "gmm"
DNN_BACKEND = "dnn"


@dataclass
class SiriusPipeline:
    """A fully assembled IPA server.

    Use :meth:`build` for the standard construction (trains the acoustic
    model on the input-set sentences, indexes the default corpus and scene
    database); pass components explicitly for custom setups.
    """

    decoder: Decoder
    classifier: QueryClassifier
    qa_engine: QAEngine
    image_database: ImageDatabase
    asr_backend: str = GMM_BACKEND
    #: Run QA and IMM concurrently for voice-image queries (the Lucida-style
    #: service-parallel execution; numpy releases the GIL in IMM's hot loops).
    parallel_services: bool = False
    #: Cached serving-layer executor plus the component identities it wraps
    #: (rebuilt when a component is swapped on a live pipeline).
    _serving: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _serving_key: Tuple[int, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        asr_backend: str = GMM_BACKEND,
        training_sentences: Optional[List[str]] = None,
        training_repetitions: int = 3,
        n_scenes: int = 10,
        scene_generator: Optional[SceneGenerator] = None,
        qa_engine: Optional[QAEngine] = None,
    ) -> "SiriusPipeline":
        """Assemble and train all services."""
        if asr_backend not in (GMM_BACKEND, DNN_BACKEND):
            raise ConfigurationError(f"unknown ASR backend: {asr_backend!r}")
        sentences = (
            list(training_sentences) if training_sentences is not None else all_sentences()
        )
        data = collect_training_data(sentences, repetitions=training_repetitions)
        if asr_backend == GMM_BACKEND:
            acoustic_model = train_gmm_acoustic_model(data)
        else:
            acoustic_model = train_dnn_acoustic_model(data)
        language_model = BigramLanguageModel(sentences)
        decoder = Decoder(acoustic_model, language_model)
        generator = scene_generator if scene_generator is not None else SceneGenerator()
        database = ImageDatabase.with_scenes(n_scenes, generator=generator)
        return cls(
            decoder=decoder,
            classifier=QueryClassifier(),
            qa_engine=qa_engine if qa_engine is not None else QAEngine(),
            image_database=database,
            asr_backend=asr_backend,
        )

    # -- query processing ----------------------------------------------------------

    @property
    def serving(self):
        """The serving-layer executor wrapping this pipeline's components.

        Built lazily (and imported lazily: ``repro.serving`` imports the
        query model from this package, so a module-level import here would
        be circular) and rebuilt if a component is swapped afterwards.
        """
        from repro.serving import build_executor

        key = (
            id(self.decoder),
            id(self.classifier),
            id(self.qa_engine),
            id(self.image_database),
        )
        if self._serving is None or self._serving_key != key:
            self._serving = build_executor(
                self.decoder, self.classifier, self.qa_engine, self.image_database
            )
            self._serving_key = key
        return self._serving

    def process(self, query: IPAQuery) -> SiriusResponse:
        """Run one query through the full pipeline."""
        return self.serving.run(query, parallel_branches=self.parallel_services)

    def process_all(self, queries: List[IPAQuery]) -> List[SiriusResponse]:
        return self.serving.run_all(
            queries, parallel_branches=self.parallel_services
        )
