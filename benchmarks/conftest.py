"""Shared benchmark fixtures and the report sink.

Every benchmark regenerates one of the paper's tables/figures as text; the
rendered report is printed and also written to ``benchmarks/results/`` so
EXPERIMENTS.md can reference stable artifacts.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(autouse=True)
def _runs_under_benchmark_only(benchmark):
    """Pull the ``benchmark`` fixture into every bench test's closure.

    The table/figure *report* tests don't time anything themselves, but they
    must still run under ``--benchmark-only`` (the canonical invocation) so
    the reproduced tables are regenerated alongside the timings.
    """


@pytest.fixture(scope="session")
def save_report():
    """Callable writing a rendered report to benchmarks/results/<name>.txt."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text.rstrip() + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


@pytest.fixture(scope="session")
def pipeline():
    from repro.core import SiriusPipeline

    return SiriusPipeline.build()


@pytest.fixture(scope="session")
def inputs():
    from repro.core import InputSet

    return InputSet.build()


@pytest.fixture(scope="session")
def responses(pipeline, inputs):
    """One processed response per input-set query, untraced."""
    return [pipeline.process(query) for query in inputs.all_queries]


@pytest.fixture(scope="session")
def traced_spans(pipeline, inputs):
    """The span forest of one traced pass over the input set: the section
    spans Figure 9 and the fractions ablation project."""
    from repro.obs import collect_spans
    from repro.serving import PlanExecutor

    executor = PlanExecutor(pipeline.serving.services, trace_seed=2015)
    return collect_spans(executor.run_all(inputs.all_queries))


@pytest.fixture(scope="session")
def designer():
    from repro.datacenter import DatacenterDesigner

    return DatacenterDesigner()
