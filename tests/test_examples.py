"""Smoke tests: every example script runs to completion."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def _run(script, *args, timeout=240):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "[VC]" in result.stdout and "[VIQ]" in result.stdout

    def test_datacenter_design(self):
        result = _run("datacenter_design.py")
        assert result.returncode == 0, result.stderr
        assert "Scalability gap" in result.stdout

    def test_custom_assistant(self):
        result = _run("custom_assistant.py")
        assert result.returncode == 0, result.stderr
        assert "Dana Webb" in result.stdout

    def test_suite_benchmarks(self):
        result = _run("suite_benchmarks.py", "--scale", "0.05")
        assert result.returncode == 0, result.stderr
        assert "stemmer" in result.stdout

    def test_asr_toolkit(self):
        result = _run("asr_toolkit.py")
        assert result.returncode == 0, result.stderr
        assert "N-best hypotheses" in result.stdout

    @pytest.mark.slow
    def test_voice_assistant_demo(self):
        result = _run("voice_assistant_demo.py", timeout=600)
        assert result.returncode == 0, result.stderr
        assert "Per-class results" in result.stdout
