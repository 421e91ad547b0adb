"""Print a sha256 of every output file the shipped CLI commands write on configs/.

Usage:  python tools/output_digest.py

The commands run in-process on the package source beside this file
(`../src`), into a temporary directory:

- `kernel check` on each kernel file in configs/ (its report is saved as
  a text file);
- `simulate` in the history framework, and in the state framework with
  `--cloud-every 2`;
- `compare`, `energy-report` (on the single-mode config, and at
  `--sigma 0.5 --samples 20` on the cubic one), `lk-split` and `hypotheses`;
- `attract` of the state run's clouds against its last cloud.

Each line is `<sha256>  <path>`, sorted by path, so two trees compare by
`diff`.  summary.txt is hashed without its `generated` timestamp line,
which is the only part of an output that differs between reruns.  A command
that exits nonzero, other than a failing `kernel check`, stops the script
with status 1.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
sys.path.insert(0, os.path.join(ROOT, "src"))

from memoryflow.cli import main  # noqa: E402


def commands(out):
    """(name, argv, allowed exit codes) in run order; paths under `out`."""
    cfg = lambda name: os.path.join(CONFIGS, name)
    cubic, single = cfg("experiment.json"), cfg("compare_single_mode.json")
    state = os.path.join(out, "simulate_state")
    runs = [("kernel_check_%s" % name[:-len(".kernel.json")],
             ["kernel", "check", cfg(name), "--nec", "1", "1", "--dafermos", "1",
              "--flatness"], (0, 1))
            for name in sorted(os.listdir(CONFIGS)) if name.endswith(".kernel.json")]
    runs += [
        ("simulate_history", ["simulate", "--config", cubic, "--framework", "history",
                              "--out", os.path.join(out, "simulate_history")], (0,)),
        ("simulate_state", ["simulate", "--config", cubic, "--framework", "state",
                            "--cloud-every", "2", "--out", state], (0,)),
        ("compare", ["compare", "--config", single,
                     "--out", os.path.join(out, "compare")], (0,)),
        ("energy_report", ["energy-report", "--config", single,
                           "--out", os.path.join(out, "energy_report")], (0,)),
        ("energy_report_sigma", ["energy-report", "--config", cubic, "--sigma", "0.5",
                                 "--samples", "20",
                                 "--out", os.path.join(out, "energy_report_sigma")], (0,)),
        ("lk_split", ["lk-split", "--config", cubic,
                      "--out", os.path.join(out, "lk_split")], (0,)),
        ("hypotheses", ["hypotheses", "--config", cubic, "--radii", "1", "2", "4",
                        "--out", os.path.join(out, "hypotheses")], (0,)),
        ("attract", ["attract", "--bundle", os.path.join(state, "clouds"),
                     "--surrogate", os.path.join(out, "surrogate"),
                     "--out", os.path.join(out, "attract", "attract.csv")], (0,)),
    ]
    return runs


def digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "summary.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith(b'"generated":'))
    return hashlib.sha256(data).hexdigest()


def run_all(out):
    for name, argv, allowed in commands(out):
        if name == "attract":
            # attract's surrogate is the last cloud of the state run
            clouds = os.path.join(out, "simulate_state", "clouds")
            last = max(os.listdir(clouds),
                       key=lambda c: float(c[len("cloud_t"):-len(".csv")]))
            os.makedirs(os.path.join(out, "surrogate"))
            shutil.copy(os.path.join(clouds, last), os.path.join(out, "surrogate"))
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            rc = main(argv)
        if rc not in allowed:
            sys.exit("%s exited %d" % (" ".join(argv), rc))
        if argv[0] == "kernel":
            with open(os.path.join(out, name + ".txt"), "w") as fh:
                fh.write(text.getvalue())
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            yield os.path.relpath(path, out), digest(path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        for rel, sha in sorted(run_all(out)):
            print("%s  %s" % (sha, rel))
