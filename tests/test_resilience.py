"""Chaos suite for the resilience layer (ISSUE 3).

Three tiers:

- unit tests for the mechanisms (retry schedules, the circuit breaker's
  closed/open/half-open lattice, fault-plan determinism);
- executor-level tests over *stub* services, where every failure is
  scripted: retry-then-success, retry exhaustion, deadlines, breaker trip
  and recovery, corruption detection, and the degradation matrix
  (QA -> fallback answer, IMM -> VIQ served as VQ, ASR/classify -> fatal);
- chaos equivalence over the *real* pipeline: one seeded FaultPlan must
  produce byte-identical degraded outcomes on every execution backend
  (serial / thread / process), and an empty plan must
  reproduce the plain sequential reference exactly.
"""

import numpy as np
import pytest

from repro.asr.audio import Waveform
from repro.core import IPAQuery, QueryType
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    InjectedFaultError,
    ServiceError,
    SiriusError,
)
from repro.imm.image import Image
from repro.serving import (
    ASR,
    CLASSIFY,
    IMM,
    QA,
    BreakerPolicy,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    PlanExecutor,
    ResiliencePolicy,
    ResilientService,
    RetryPolicy,
    Service,
    ServiceRequest,
    charge_virtual_seconds,
    default_chaos_plan,
    default_policies,
    resilient_executor,
    wrap_services,
)
from repro.serving.identity import outcome_fingerprint
from repro.serving.faults import CORRUPT, ERROR, FLAP, LATENCY, OUTAGE
from repro.serving.resilience import CLOSED, HALF_OPEN, OPEN


# -- stub pipeline -----------------------------------------------------------------
# Module level (not nested in tests) so payloads pickle across the process
# backend.  The stubs honour the real payload contracts the executor reads:
# ASR -> .text, classify -> .is_action, QA -> .answer_text/.stats.total_hits,
# IMM -> .image_name.


class StubText:
    def __init__(self, text):
        self.text = text


class StubClassification:
    def __init__(self, is_action):
        self.is_action = is_action


class StubQaStats:
    def __init__(self, total_hits=1):
        self.total_hits = total_hits


class StubAnswer:
    def __init__(self, answer_text, total_hits=1):
        self.answer_text = answer_text
        self.stats = StubQaStats(total_hits)


class StubMatch:
    def __init__(self, image_name):
        self.image_name = image_name


class StubAsr(Service):
    name, label = ASR, "ASR"

    def invoke(self, request):
        return StubText(request.query.text)


class StubClassifier(Service):
    name, label = CLASSIFY, "CLASSIFY"

    def invoke(self, request):
        return StubClassification(request.payload.startswith("do "))


class StubQa(Service):
    name, label = QA, "QA"

    def invoke(self, request):
        return StubAnswer(f"answer to {request.payload}")


class StubImm(Service):
    name, label = IMM, "IMM"

    def invoke(self, request):
        return StubMatch("stub-scene")


class FlakyService(Service):
    """Scripted QA stand-in: fails its first ``fail_times`` invocations."""

    name, label = QA, "QA"

    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0

    def invoke(self, request):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise ServiceError("scripted failure", service=self.name)
        return StubAnswer("recovered")


class SlowService(Service):
    """QA stand-in charging a virtual latency spike on every call."""

    name, label = QA, "QA"

    def __init__(self, virtual_seconds):
        self.virtual_seconds = virtual_seconds
        self.calls = 0

    def invoke(self, request):
        self.calls += 1
        charge_virtual_seconds(self.virtual_seconds)
        return StubAnswer("slow answer")


def stub_services():
    return {ASR: StubAsr(), CLASSIFY: StubClassifier(),
            QA: StubQa(), IMM: StubImm()}


def make_query(text, with_image=False):
    image = Image(np.full((6, 6), 0.5), name="stub-scene") if with_image else None
    return IPAQuery(audio=Waveform(np.ones(64)), image=image, text=text)


#: No backoff sleeping, no breaker: the bare retry armour for stub tests.
FAST_RETRY = ResiliencePolicy(retry=RetryPolicy(max_attempts=3))


# -- retry policy ------------------------------------------------------------------


class TestRetryPolicy:
    def test_raw_schedule_is_monotone_and_capped(self):
        policy = RetryPolicy(max_attempts=6, backoff_base=0.1,
                             backoff_factor=2.0, backoff_max=0.5)
        raw = [policy.raw_delay(i) for i in range(5)]
        assert raw == sorted(raw)
        assert max(raw) <= 0.5
        assert raw[0] == pytest.approx(0.1)

    def test_zero_jitter_schedule_equals_raw(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.01)
        assert policy.schedule(seed=1, service="qa", ordinal=9) == tuple(
            policy.raw_delay(i) for i in range(3)
        )

    def test_jittered_schedule_replays_per_seed_and_ordinal(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.01, jitter=0.5)
        first = policy.schedule(seed=3, service="qa", ordinal=7)
        assert first == policy.schedule(seed=3, service="qa", ordinal=7)
        assert first != policy.schedule(seed=4, service="qa", ordinal=7)
        assert first != policy.schedule(seed=3, service="qa", ordinal=8)

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"jitter": 1.5},
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


# -- circuit breaker ---------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_then_probes(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3,
                                               cooldown_calls=2))
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == OPEN
        # Cooldown is counted in rejected calls: two fail fast ...
        assert not breaker.allow()
        assert not breaker.allow()
        # ... then the next call is the half-open probe.
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                               cooldown_calls=1))
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.allow()  # probe
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_success_resets_consecutive_failure_count(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2,
                                               cooldown_calls=1))
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_wall_clock_cooldown_with_injected_clock(self):
        now = [0.0]
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, cooldown_seconds=5.0),
            clock=lambda: now[0],
        )
        breaker.record_failure()
        assert not breaker.allow()
        now[0] = 4.9
        assert not breaker.allow()
        now[0] = 5.1
        assert breaker.allow()
        assert breaker.state == HALF_OPEN


# -- fault plans -------------------------------------------------------------------


class TestFaultPlan:
    def test_fault_for_is_pure(self):
        plan = default_chaos_plan(42)
        decisions = [plan.fault_for("qa", o, a) for o in range(50) for a in range(3)]
        replay = [plan.fault_for("qa", o, a) for o in range(50) for a in range(3)]
        assert decisions == replay

    def test_flap_window(self):
        plan = FaultPlan(rules={"imm": (FaultRule(kind=FLAP, on=2, off=3),)})
        fires = [plan.fault_for("imm", o, 0) is not None for o in range(10)]
        assert fires == [True, True, False, False, False,
                         True, True, False, False, False]

    def test_outage_window_and_max_attempt(self):
        plan = FaultPlan(rules={
            "asr": (FaultRule(kind=OUTAGE, start=3, stop=5),),
            "qa": (FaultRule(kind=ERROR, max_attempt=1),),
        })
        assert plan.fault_for("asr", 2, 0) is None
        assert plan.fault_for("asr", 3, 0) is not None
        assert plan.fault_for("asr", 4, 2) is not None  # outages ignore attempts
        assert plan.fault_for("asr", 5, 0) is None
        assert plan.fault_for("qa", 0, 0) is not None
        assert plan.fault_for("qa", 0, 1) is None  # retry escapes the fault

    def test_rate_draws_are_seed_stable(self):
        plan_a = FaultPlan(seed=9, rules={"qa": (FaultRule(kind=ERROR, rate=0.3),)})
        plan_b = FaultPlan(seed=9, rules={"qa": (FaultRule(kind=ERROR, rate=0.3),)})
        outcomes_a = [plan_a.fault_for("qa", o, 0) is not None for o in range(200)]
        outcomes_b = [plan_b.fault_for("qa", o, 0) is not None for o in range(200)]
        assert outcomes_a == outcomes_b
        assert 20 < sum(outcomes_a) < 100  # rate actually thins the stream

    @pytest.mark.parametrize("kwargs", [
        {"kind": "nonsense"},
        {"kind": ERROR, "rate": 1.5},
        {"kind": LATENCY, "seconds": 0.0},
        {"kind": FLAP, "on": 0},
        {"kind": OUTAGE, "start": 5, "stop": 5},
        {"kind": ERROR, "max_attempt": 0},
    ])
    def test_invalid_rules_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultRule(**kwargs)


# -- resilient service: the attempt loop -------------------------------------------


class TestResilientService:
    def test_retry_then_success(self):
        inner = FlakyService(fail_times=2)
        service = ResilientService(inner, FAST_RETRY)
        payload = service.invoke(ServiceRequest(payload="q", ordinal=0))
        assert payload.answer_text == "recovered"
        assert inner.calls == 3
        (record,) = service.call_log
        assert record.ok and record.attempts == 3

    def test_retry_exhaustion_raises_with_stable_code(self):
        inner = FlakyService(fail_times=99)
        service = ResilientService(inner, FAST_RETRY)
        with pytest.raises(ServiceError) as excinfo:
            service.invoke(ServiceRequest(payload="q", ordinal=0))
        assert excinfo.value.code == "SERVICE"
        assert inner.calls == 3
        (record,) = service.call_log
        assert not record.ok and record.attempts == 3 and record.code == "SERVICE"

    def test_deadline_spike_is_terminal_not_retried(self):
        inner = SlowService(virtual_seconds=5.0)
        service = ResilientService(
            inner, ResiliencePolicy(deadline_seconds=2.0,
                                    retry=RetryPolicy(max_attempts=3)),
        )
        with pytest.raises(DeadlineExceededError) as excinfo:
            service.invoke(ServiceRequest(payload="q", ordinal=0))
        assert excinfo.value.code == "DEADLINE"
        assert inner.calls == 1  # elapsed only grows; no retry
        (record,) = service.call_log
        assert record.seconds >= 5.0  # virtual latency counted into elapsed

    def test_corruption_detected_and_retried_away(self):
        plan = FaultPlan(rules={QA: (FaultRule(kind=CORRUPT, max_attempt=1),)})
        service = ResilientService(FaultInjector(StubQa(), plan), FAST_RETRY)
        payload = service.invoke(ServiceRequest(payload="q", ordinal=0))
        assert payload.answer_text == "answer to q"
        (record,) = service.call_log
        assert record.ok and record.attempts == 2

    def test_breaker_trips_then_fails_fast(self):
        inner = FlakyService(fail_times=99)
        service = ResilientService(
            inner,
            ResiliencePolicy(
                retry=RetryPolicy(max_attempts=1),
                breaker=BreakerPolicy(failure_threshold=3, cooldown_calls=10),
            ),
        )
        for ordinal in range(3):
            with pytest.raises(ServiceError):
                service.invoke(ServiceRequest(payload="q", ordinal=ordinal))
        assert service.breaker.state == OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            service.invoke(ServiceRequest(payload="q", ordinal=3))
        assert excinfo.value.code == "CIRCUIT_OPEN"
        assert inner.calls == 3  # the rejected call never reached the service
        assert service.call_log[-1].attempts == 0

    def test_breaker_recovers_after_cooldown(self):
        inner = FlakyService(fail_times=2)
        service = ResilientService(
            inner,
            ResiliencePolicy(
                retry=RetryPolicy(max_attempts=1),
                breaker=BreakerPolicy(failure_threshold=2, cooldown_calls=2,
                                      recovery_successes=1),
            ),
        )
        for ordinal in range(2):  # trip
            with pytest.raises(ServiceError):
                service.invoke(ServiceRequest(payload="q", ordinal=ordinal))
        for ordinal in range(2, 4):  # cooldown: fail fast without calling inner
            with pytest.raises(CircuitOpenError):
                service.invoke(ServiceRequest(payload="q", ordinal=ordinal))
        # Probe: the service has recovered, so the circuit closes again.
        payload = service.invoke(ServiceRequest(payload="q", ordinal=4))
        assert payload.answer_text == "recovered"
        assert service.breaker.state == CLOSED


# -- executor degradation matrix ---------------------------------------------------


def chaos_executor(rules, seed=0, policies=None):
    plan = FaultPlan(seed=seed, rules=rules)
    services = wrap_services(stub_services(), policies or FAST_RETRY, plan)
    return PlanExecutor(services)


class TestDegradation:
    def test_qa_failure_degrades_to_fallback_answer(self):
        executor = chaos_executor({QA: (FaultRule(kind=ERROR),)})
        response = executor.run(make_query("what is this"))
        assert response.degraded and not response.failed
        assert response.failures == {"QA": "INJECTED"}
        assert response.answer == "" and response.filter_hits == 0
        assert response.transcript == "what is this"
        assert response.query_type is QueryType.VOICE_QUERY

    def test_imm_failure_degrades_viq_to_vq(self):
        executor = chaos_executor({IMM: (FaultRule(kind=ERROR),)})
        response = executor.run(make_query("what is this", with_image=True))
        assert response.degraded and not response.failed
        assert response.failures == {"IMM": "INJECTED"}
        assert response.query_type is QueryType.VOICE_QUERY  # VIQ served as VQ
        assert response.answer == "answer to what is this"
        assert response.matched_image == ""

    def test_asr_failure_is_fatal_and_raises_by_default(self):
        executor = chaos_executor({ASR: (FaultRule(kind=ERROR),)})
        with pytest.raises(InjectedFaultError):
            executor.run(make_query("do the thing"))

    def test_asr_failure_degrades_to_failed_response_on_request(self):
        executor = chaos_executor({ASR: (FaultRule(kind=ERROR),)})
        response = executor.run(make_query("do the thing"), on_error="degrade")
        assert response.failed and response.degraded
        assert response.failures == {"ASR": "INJECTED"}
        assert response.transcript == "" and response.answer == ""

    def test_unfaulted_stub_run_is_clean(self):
        executor = chaos_executor({})
        response = executor.run(make_query("what is this", with_image=True))
        assert not response.degraded and response.failures == {}
        assert response.query_type is QueryType.VOICE_IMAGE_QUERY
        assert response.matched_image == "stub-scene"

    def test_invalid_on_error_rejected(self):
        executor = chaos_executor({})
        with pytest.raises(ConfigurationError):
            executor.run(make_query("hi"), on_error="explode")

    def test_stream_survives_fatal_queries_under_degrade(self):
        executor = chaos_executor({ASR: (FaultRule(kind=OUTAGE, start=1, stop=2),)})
        queries = [make_query(f"query {i}") for i in range(4)]
        responses = executor.run_all(queries, on_error="degrade")
        assert [r.failed for r in responses] == [False, True, False, False]


# -- chaos equivalence across backends ---------------------------------------------


def _breakerless(seed):
    """Per-service policies minus breakers: breaker state is order-dependent
    across thread interleavings, so the cross-backend *byte-identity* claim
    is made (and tested) for deadline+retry+degradation only."""
    return {
        name: ResiliencePolicy(
            deadline_seconds=policy.deadline_seconds,
            retry=policy.retry,
            breaker=None,
            seed=policy.seed,
        )
        for name, policy in default_policies(seed=seed).items()
    }


BACKENDS = ["serial", "thread", "process"]


class TestChaosEquivalence:
    """One seeded FaultPlan, every backend, identical degraded outcomes."""

    def test_stub_chaos_identical_across_all_backends(self):
        rules = {
            ASR: (FaultRule(kind=OUTAGE, start=5, stop=6),),
            QA: (FaultRule(kind=ERROR, rate=0.4, max_attempt=1),
                 FaultRule(kind=CORRUPT, rate=0.2, max_attempt=1)),
            IMM: (FaultRule(kind=FLAP, on=2, off=3),),
        }
        queries = [make_query(f"what is item {i}", with_image=(i % 3 == 0))
                   for i in range(12)]
        outcomes = {}
        for backend in BACKENDS:
            executor = chaos_executor(rules, seed=11)
            responses = executor.run_all(
                queries, backend=backend, workers=4, on_error="degrade",
            )
            outcomes[backend] = outcome_fingerprint(responses)
        reference = outcomes["serial"]
        assert any(t[4] for t in reference)  # chaos actually bit
        for backend, fingerprint in outcomes.items():
            assert fingerprint == reference, f"backend {backend} diverged"

    def test_real_pipeline_chaos_identical_across_backends(
        self, sirius_pipeline, input_set
    ):
        queries = (
            input_set.voice_commands[:3]
            + input_set.voice_queries[:5]
            + input_set.voice_image_queries[:4]
        )
        plan = default_chaos_plan(7)
        outcomes = {}
        for backend in BACKENDS:
            executor = resilient_executor(
                sirius_pipeline.serving, _breakerless(7), plan
            )
            executor.warmup()
            responses = executor.run_all(
                queries, backend=backend, workers=4, on_error="degrade",
            )
            outcomes[backend] = outcome_fingerprint(responses)
        reference = outcomes["serial"]
        assert any(t[4] for t in reference)
        for backend, fingerprint in outcomes.items():
            assert fingerprint == reference, f"backend {backend} diverged"

    def test_empty_fault_plan_matches_sequential_reference(
        self, sirius_pipeline, input_set
    ):
        queries = input_set.all_queries[:8]
        reference = sirius_pipeline.serving.run_all(queries)
        executor = resilient_executor(sirius_pipeline.serving,
                                      default_policies())
        responses = executor.run_all(queries, on_error="degrade")
        assert outcome_fingerprint(responses) == outcome_fingerprint(reference)
        assert not any(r.degraded for r in responses)

    def test_seeded_replay_with_breakers_is_identical_serially(
        self, sirius_pipeline, input_set
    ):
        """Full default policies (breakers included) replay exactly when the
        stream runs sequentially — the ``serve-bench --chaos`` contract."""
        queries = input_set.all_queries[:10]
        runs = []
        for _ in range(2):
            executor = resilient_executor(
                sirius_pipeline.serving, default_policies(seed=42),
                default_chaos_plan(42),
            )
            executor.warmup()
            runs.append(outcome_fingerprint(
                executor.run_all(queries, on_error="degrade")
            ))
        assert runs[0] == runs[1]
