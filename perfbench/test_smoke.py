"""Smoke test of the benchmark at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.METRIC_UNITS)
    assert all(tracer.METRIC_UNITS[m["name"]] == m["unit"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_tiny_run_is_correct(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("ensemble_cubic", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_name_gives_absent_metric(monkeypatch):
    fake = types.ModuleType("fake_pkg")
    fake.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_pkg", fake)
    t = tracer.Tracer(sites=[("spaces.lambda_map", "fake_pkg", "present", False),
                             ("attractors.cloud", "fake_pkg", "gone", False)])
    t.install()
    try:
        assert fake.present(1) == 2
    finally:
        t.uninstall()
    metrics = t.metrics()
    assert metrics["spaces.lambda_map_calls"] == 1
    assert "attractors.cloud_s" not in metrics
    assert t.missing == ["fake_pkg.gone"]
    assert fake.present(1) == 2 and len(t.spans) == 1
