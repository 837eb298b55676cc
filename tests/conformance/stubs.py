"""Fast, picklable stub fleets for the conformance suite.

Everything is module-level so payloads cross the fork-based process
backend; service outputs are pure functions of the query text, so outcome
fingerprints are replay-comparable by construction and any divergence the
suite detects comes from the cluster layer itself.
"""

import numpy as np

from repro.asr.audio import Waveform
from repro.core import IPAQuery
from repro.imm.image import Image
from repro.serving import ASR, CLASSIFY, IMM, QA, PlanExecutor, Service, wrap_services
from repro.serving.cluster import AdmissionControl, Cluster


class StubText:
    def __init__(self, text):
        self.text = text


class StubClassification:
    def __init__(self, is_action=False):
        self.is_action = is_action


class StubQaStats:
    total_hits = 1


class StubAnswer:
    def __init__(self, answer_text):
        self.answer_text = answer_text
        self.stats = StubQaStats()


class StubMatch:
    image_name = "stub-scene"


class StubAsr(Service):
    name, label = ASR, "ASR"

    def invoke(self, request, profiler):
        with profiler.section("asr.decode"):
            return StubText(request.query.text)


class StubClassifier(Service):
    name, label = CLASSIFY, "CLASSIFY"

    def invoke(self, request, profiler):  # noqa: ARG002
        # "command ..." transcripts are voice commands (no QA stage).
        return StubClassification(request.payload.startswith("command"))


class StubQa(Service):
    name, label = QA, "QA"

    def invoke(self, request, profiler):
        with profiler.section("qa.search"):
            pass
        return StubAnswer(f"answer to {request.payload}")


class StubImm(Service):
    name, label = IMM, "IMM"

    def invoke(self, request, profiler):  # noqa: ARG002
        return StubMatch()


def stub_services(fault_plan=None):
    services = {
        ASR: StubAsr(),
        CLASSIFY: StubClassifier(),
        QA: StubQa(),
        IMM: StubImm(),
    }
    if fault_plan is not None:
        # The canonical chaos construction: ResilientService(FaultInjector(stub)),
        # so corrupted payloads are detected and retried instead of crashing
        # response assembly.
        services = wrap_services(services, fault_plan=fault_plan)
    return services


def stub_cluster(
    n_replicas=3,
    policy="power-of-two",
    seed=0,
    trace_seed=0,
    fault_plan=None,
    drop_rate=0.0,
    max_depth=0,
):
    """A routed fleet of stub replicas — milliseconds per query stream."""
    executors = [
        PlanExecutor(stub_services(fault_plan), trace_seed=trace_seed)
        for _ in range(n_replicas)
    ]
    admission = (
        AdmissionControl(max_depth=max_depth, drop_rate=drop_rate, seed=seed)
        if (drop_rate > 0 or max_depth > 0)
        else None
    )
    return Cluster(executors, policy=policy, seed=seed, admission=admission)


def make_query(text, with_image=False):
    image = Image(np.full((6, 6), 0.5), name="stub-scene") if with_image else None
    return IPAQuery(audio=Waveform(np.ones(64)), image=image, text=text)


def make_queries(n=8):
    return [make_query(f"query {i}", with_image=(i % 2 == 0)) for i in range(n)]


def make_mixed_queries(n=12):
    """VC / VQ / VIQ in rotation: a command, a question, a question + image."""
    return [
        make_query(
            f"{'command' if i % 3 == 0 else 'query'} {i}", with_image=(i % 3 == 2)
        )
        for i in range(n)
    ]
