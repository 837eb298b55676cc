"""Shared fixtures: expensive trained components built once per session."""

import pytest

from repro.core import InputSet, SiriusPipeline
from repro.obs.context import use_tracer
from repro.obs.critical_path import section_seconds
from repro.obs.trace import Tracer


@pytest.fixture(scope="session")
def sirius_pipeline():
    """A fully trained GMM-backed Sirius pipeline (built once)."""
    return SiriusPipeline.build()


@pytest.fixture(scope="session")
def input_set():
    """The 42-query input set with synthesized audio and images."""
    return InputSet.build()


@pytest.fixture
def sections_of():
    """``section_seconds`` of ``call()`` run under one root span."""

    def run(call):
        tracer = Tracer()
        with use_tracer(tracer), tracer.trace(0):
            call()
        return section_seconds(tracer.finish())

    return run
