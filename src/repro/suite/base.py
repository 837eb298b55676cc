"""Sirius Suite kernel abstraction (paper Table 4).

Each kernel packages: a representative input-set builder (``prepare``), the
single-threaded baseline (``run``), and a data-parallel port
(``run_parallel``) that divides the input at the granularity listed in
Table 4 — the same structure as the paper's pthread ports.  ``run`` returns
a checksum so ports can be verified against the baseline.

Each kernel has one port, on the backend named by its ``port`` constant:
threads where the kernel's numpy work releases the GIL (GMM, DNN, FD),
forked processes where the work holds it — pure Python (Stemmer, Regex,
CRF), or numpy on arrays too small to release it for long (FE).  The choice
is measured, kernel by kernel, at the size where the baseline takes at
least 50 ms (EXPERIMENTS.md, "Multicore, measured"); accelerator speedups
for Table 5 come from the calibrated platform model (:mod:`repro.platforms`),
not from these ports.
"""

from __future__ import annotations

import abc
import contextlib
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.context import current_tracer
from repro.serving.backends import map_processes, map_threads
from repro.suite.parallel import chunk_ranges


@dataclass(frozen=True)
class KernelRun:
    """Outcome of executing a kernel once."""

    kernel: str
    seconds: float
    items: int
    checksum: float
    workers: int = 1

    @property
    def items_per_second(self) -> float:
        """Throughput; 0.0 for a zero-duration run (nothing was measured).

        Returning ``inf`` here poisoned downstream aggregation (means and
        ratios over per-run throughputs became ``inf``/``nan``).
        """
        return self.items / self.seconds if self.seconds > 0 else 0.0


class Kernel(abc.ABC):
    """One Sirius Suite benchmark."""

    #: Kernel short name, e.g. "gmm".
    name: str = ""
    #: Owning service: "ASR", "QA", or "IMM".
    service: str = ""
    #: Table 4 "data granularity" description.
    granularity: str = ""
    #: The port's backend, ``"thread"`` or ``"process"``: the one that beat
    #: the baseline at the kernel's >= 50-ms size.
    port: str = "process"

    @abc.abstractmethod
    def prepare(self, scale: float = 1.0) -> Any:
        """Build the kernel's input set; ``scale`` shrinks/grows it."""

    @abc.abstractmethod
    def run(self, inputs: Any) -> float:
        """Single-threaded baseline; returns a checksum."""

    @abc.abstractmethod
    def count_items(self, inputs: Any) -> int:
        """How many granularity units the input contains."""

    @abc.abstractmethod
    def subset(self, inputs: Any, chunk: range) -> Any:
        """The sub-input covering work items ``chunk`` (for the port)."""

    def run_parallel(self, inputs: Any, workers: int) -> float:
        """The data-parallel port on ``port``; the same checksum as ``run``
        (to float summation order).

        The input splits into contiguous chunks (via :meth:`subset`, all
        built before any runs), each chunk runs ``run`` on its own worker,
        and partial checksums sum in chunk order at the end — one
        synchronization, as in the paper's ports.  A process port forks,
        so chunks are shared copy-on-write, not re-pickled.
        """
        ranges = chunk_ranges(self.count_items(inputs), workers)
        if len(ranges) <= 1:
            return self.run(inputs)
        chunks = [self.subset(inputs, chunk) for chunk in ranges]
        mapper = map_threads if self.port == "thread" else map_processes
        return float(sum(mapper(self.run, chunks, len(chunks))))

    def execute(self, inputs: Any, workers: int = 1) -> KernelRun:
        """Run and time the kernel over prepared ``inputs``."""
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        # With an ambient tracer and an open trace, the run is wrapped in a
        # ``kernel`` span so the hot-path work counters (repro.obs.counters)
        # accumulate on a per-kernel node — this is what `repro bench` and
        # `repro trace-report --roofline` consume.
        tracer = current_tracer()
        span: Any = contextlib.nullcontext()
        if tracer is not None and tracer.current_span() is not None:
            from repro.obs.trace import KERNEL

            span = tracer.span(
                f"kernel:{self.name}",
                kind=KERNEL,
                service=self.service,
                attributes={"kernel": self.name, "workers": workers},
            )
        start = time.perf_counter()
        with span:
            checksum = self.run_parallel(inputs, workers)
        elapsed = time.perf_counter() - start
        return KernelRun(
            kernel=self.name,
            seconds=elapsed,
            items=self.count_items(inputs),
            checksum=float(checksum),
            workers=workers,
        )

    def __repr__(self) -> str:
        return f"<Kernel {self.name} ({self.service})>"
