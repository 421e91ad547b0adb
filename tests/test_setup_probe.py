"""The benchmark's set-up probe (perfbench/run.py, SETUP_PROBE) must run.

The probe unpacks `cli.load_experiment(cfg)` into a model and a kernel and
passes them to `cli.assemble`.  A change to either signature fails every
benchmark workload as incorrect, and nothing else in this suite calls the
two the way the probe does.
"""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_setup_probe_runs_on_the_shipped_config():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    proc = subprocess.run(
        [sys.executable, "-c", run.SETUP_PROBE, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "configs", "experiment.json")],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
