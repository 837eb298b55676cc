"""Smoke test of the wall-clock benchmark.

    python -m pytest benchmarks/perf -q

Not part of tier-1 (``testpaths`` is ``tests``): it times real work for
about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = str(HERE / "run.py")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_quick_run_reports_every_declared_metric():
    spec = _spec()
    done = subprocess.run([sys.executable, RUN, "--quick"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads((HERE / "out" / "report.json").read_text())
    assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, result in report["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        assert all(m["value"] > 0 for m in result["end_to_end"].values()), name
        trace = json.loads((HERE / "out" / f"trace-{name}.json").read_text())
        assert {"id", "name", "start", "end", "parent", "op_id"} <= set(trace["spans"][0])


def test_driver_invocation_ends_with_one_result_object():
    spec = _spec()
    done = subprocess.run(
        [*spec["command"], "--workload", "text_query", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [*_spec()["command"], "--workload", "text_query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
