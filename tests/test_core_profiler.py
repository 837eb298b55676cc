"""Tests for the component profiler."""

import pytest

from repro.profiling import NullProfiler, Profile, Profiler
from repro.errors import ProfilerError


class FakeClock:
    """Deterministic clock advancing only when told."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestProfiler:
    def test_single_section(self):
        clock = FakeClock()
        profiler = Profiler(clock=clock)
        with profiler.section("work"):
            clock.advance(2.0)
        assert profiler.profile.seconds["work"] == pytest.approx(2.0)

    def test_nested_sections_are_exclusive(self):
        clock = FakeClock()
        profiler = Profiler(clock=clock)
        with profiler.section("outer"):
            clock.advance(1.0)
            with profiler.section("inner"):
                clock.advance(3.0)
            clock.advance(0.5)
        assert profiler.profile.seconds["inner"] == pytest.approx(3.0)
        assert profiler.profile.seconds["outer"] == pytest.approx(1.5)
        assert profiler.profile.total == pytest.approx(4.5)

    def test_sequential_sections_accumulate(self):
        clock = FakeClock()
        profiler = Profiler(clock=clock)
        for _ in range(3):
            with profiler.section("step"):
                clock.advance(1.0)
        assert profiler.profile.seconds["step"] == pytest.approx(3.0)

    def test_exception_still_records(self):
        clock = FakeClock()
        profiler = Profiler(clock=clock)
        with pytest.raises(RuntimeError):
            with profiler.section("failing"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert profiler.profile.seconds["failing"] == pytest.approx(1.0)

    def test_reset_returns_profile(self):
        clock = FakeClock()
        profiler = Profiler(clock=clock)
        with profiler.section("a"):
            clock.advance(1.0)
        collected = profiler.reset()
        assert collected.seconds == {"a": pytest.approx(1.0)}
        assert profiler.profile.seconds == {}

    def test_reset_inside_open_section_rejected(self):
        """Regression: resetting with sections open used to silently charge
        pre-reset time to the fresh profile; now it raises a coded error."""
        clock = FakeClock()
        profiler = Profiler(clock=clock)
        with pytest.raises(ProfilerError) as excinfo:
            with profiler.section("outer"):
                clock.advance(1.0)
                profiler.reset()
        assert excinfo.value.code == "PROFILER"
        assert "outer" in str(excinfo.value)

    def test_reset_ok_after_sections_close(self):
        clock = FakeClock()
        profiler = Profiler(clock=clock)
        with profiler.section("a"):
            clock.advance(1.0)
        profiler.reset()
        with profiler.section("b"):
            clock.advance(2.0)
        assert profiler.profile.seconds == {"b": pytest.approx(2.0)}

    def test_null_profiler_records_nothing(self):
        profiler = NullProfiler()
        with profiler.section("ignored"):
            pass
        assert profiler.profile.seconds == {}

    def test_cross_thread_section_rejected(self):
        # Regression: sharing one Profiler across threads used to silently
        # interleave the section stack and corrupt exclusive timings.
        import threading

        profiler = Profiler()
        caught = []

        def intrude():
            try:
                with profiler.section("other-thread"):
                    pass
            except ProfilerError as exc:
                caught.append(exc)

        with profiler.section("main-thread"):
            worker = threading.Thread(target=intrude)
            worker.start()
            worker.join()
        assert len(caught) == 1
        assert caught[0].code == "PROFILER"
        assert "thread" in str(caught[0])
        # The owning thread's timing is unaffected.
        assert set(profiler.profile.seconds) == {"main-thread"}


class TestProfile:
    def test_breakdown_fractions(self):
        profile = Profile({"a": 3.0, "b": 1.0})
        breakdown = profile.breakdown()
        assert breakdown["a"] == pytest.approx(0.75)
        assert breakdown["b"] == pytest.approx(0.25)
        assert list(breakdown) == ["a", "b"]  # descending

    def test_empty_breakdown(self):
        assert Profile().breakdown() == {}
        assert Profile().fraction("missing") == 0.0

    def test_merge(self):
        left = Profile({"a": 1.0})
        right = Profile({"a": 2.0, "b": 1.0})
        left.merge(right)
        assert left.seconds == {"a": 3.0, "b": 1.0}
