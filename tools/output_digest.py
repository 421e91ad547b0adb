"""Print a sha256 of every output file the shipped CLI commands write on configs/.

Usage:  python tools/output_digest.py [--keep DIR]
        python tools/output_digest.py --compare A B

The commands run in-process on the package source beside this file
(`../src`), into a temporary directory, or into DIR with `--keep`, which
must be new or empty:

- `kernel check` on each kernel file in configs/, on an exponential
  kernel file with two jumps, written into `inputs/` of its temporary
  directory, and on the tabulated kernel file below, so the broken line's
  closed-form mass, first moment, certificate ratio and flatness are
  hashed (each report is saved as a text file);
- `simulate` in the history and in the state framework, each with
  `--cloud-every 2`, so the read-backs of both frameworks at many times
  are hashed;
- `compare`, `energy-report` (on the single-mode config, and at
  `--sigma 0.5 --samples 20` on the cubic one), `lk-split` and `hypotheses`
  (on the cubic config, and on the single-mode one, whose f = "zero" run
  takes the block path, so the memory force it reads back from u is
  hashed on both paths);
- `attract` of the state run's clouds against its last cloud;
- `simulate` in both frameworks and `compare` on a small f = "zero" model
  with a tabulated kernel, whose table and JSON files the script also
  writes into `inputs/`; these runs step one at a time, and `compare` maps
  the history to the state by the dense bridge product, not the rank-one
  one, since a broken line states no decay rate;
- `simulate` of two members of a J = 64 cubic model, also written into
  `inputs/`, where f's collocation transform, not call overhead, is most
  of a step;
- `simulate` in both frameworks and `compare` on an f = "zero", J = 4
  model with an exponential kernel of delta = 8, also written into
  `inputs/`: its window is 2880 steps at dt = 1e-3 and the runs go to
  t_end = 4, so the block path reaches the step where one matrix takes
  over for every step past the window;
- `simulate` in the state framework with `--cloud-every` of a J = 4 cubic
  model on an exponential kernel of delta = 1 at dt = 3e-3, also written
  into `inputs/`, where ds/dt = 10/3 is not an integer: the read-backs are
  rank one at every dt;
- `simulate` of a J = 3, f = "zero" model whose eigenvalues come from an
  eigenfile, its forcing from a `g.csv`, its kernel from a tabulated table
  and its start from an initial-data file, all written into `inputs/`
  with comment and blank lines: with `attract`, which reads clouds, every
  text-table reader feeds a hashed output.

Each line is `<sha256>  <path>`, sorted by path, so two trees compare by
`diff`; the files under `inputs/` are not listed.  summary.txt is hashed
without its `generated` timestamp line, which is the only part of an output
that differs between reruns.  A command that exits nonzero, other than a
failing `kernel check`, stops the script with status 1.

`--compare A B` runs nothing: for two DIRs kept by `--keep` (say, of two
trees), it prints one line per file whose hash differs, with the largest
|change| of its numbers relative to the largest |number| in A's file, and
names the files present on one side only.  It exits 1 when it prints any
line and 0 when the two DIRs hold the same files with the same hashes, so
a byte-identity claim is one command's exit status.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
sys.path.insert(0, os.path.join(ROOT, "src"))

from memoryflow.cli import main  # noqa: E402

# an exponential kernel with two downward jumps, for `kernel check`
JUMP = {"jump.kernel.json": {"family": "exponential", "delta": 1.0,
                             "jumps": [[1.0, 0.5], [2.5, 0.3]]}}
# a linear J = 4 model on a broken-line kernel, whose window sum is not a
# recursion; file name -> contents
TABULATED = {
    "tab.csv": "s,mu\n0,6\n0.25,3\n0.5,1.5\n1,0\n",
    "tab.kernel.json": {"family": "tabulated", "table": "tab.csv",
                        "theta": 1.0, "delta": 1.0, "normalize": True},
    "tab_model.json": {"J": 4, "f": "zero", "g": [0.5, 0.0, 0.3, -0.2],
                       "kernel": "tab.kernel.json"},
    "tab_experiment.json": {"model": "tab_model.json", "dt": 0.005, "t_end": 2.0,
                            "ensemble": 2, "seed": 3,
                            "initial": {"random_ball": {"radius": 1.0, "space": "H1"}}},
}
# a cubic J = 64 model, wide enough that f_modal's matvecs dominate a step
WIDE = {
    "wide.kernel.json": {"family": "exponential", "delta": 1.0},
    "wide_model.json": {"J": 64, "f": "cubic", "kernel": "wide.kernel.json"},
    "wide_experiment.json": {"model": "wide_model.json", "dt": 0.001, "t_end": 0.1,
                             "ensemble": 2, "seed": 4,
                             "initial": {"random_ball": {"radius": 1.0, "space": "H1"}}},
}
# a linear J = 4 model whose 2880-step window the runs outlast
PAST = {
    "past.kernel.json": {"family": "exponential", "delta": 8.0},
    "past_model.json": {"J": 4, "f": "zero", "g": [0.5, 0.0, 0.3, -0.2],
                        "kernel": "past.kernel.json"},
    "past_experiment.json": {"model": "past_model.json", "dt": 0.001, "t_end": 4.0,
                             "ensemble": 2, "seed": 5,
                             "initial": {"random_ball": {"radius": 1.0, "space": "H1"}}},
}

# a cubic J = 4 model on exp1 at a dt that does not divide the kernel's ds
FRACTIONAL = {
    "frac.kernel.json": {"family": "exponential", "delta": 1.0},
    "frac_model.json": {"J": 4, "f": "cubic", "g": [0.5, 0.0, 0.3, -0.2],
                        "kernel": "frac.kernel.json"},
    "frac_experiment.json": {"model": "frac_model.json", "dt": 0.003, "t_end": 3.0,
                             "ensemble": 2, "seed": 6,
                             "initial": {"random_ball": {"radius": 1.0, "space": "H1"}}},
}

# a linear J = 3 model on given eigenvalues, whose text tables all hold
# comment and blank lines
READERS = {
    "readers_tab.csv": "# s,mu\n\n0,6  # mu(0)\n0.25,3\n# halving\n0.5,1.5\n1,0\n",
    "readers.kernel.json": {"family": "tabulated", "table": "readers_tab.csv",
                            "theta": 1.0, "delta": 1.0, "normalize": True},
    "readers_eig.txt": "# not the interval's j^2\n1.5 2.25\n\n4  # the third\n",
    "readers_g.csv": "mode,coeff\n# mode 2 is unforced\n\n1,0.5  # the first\n3,-0.25\n",
    "readers_init.csv": "u_1,u_2,u_3,v_1,v_2,v_3\n# by hand\n\n0.5,0,-0.25,0,0.125,0  # u, v\n",
    "readers_model.json": {"J": 3, "domain": {"eigenfile": "readers_eig.txt"}, "f": "zero",
                           "g": "readers_g.csv", "kernel": "readers.kernel.json"},
    "readers_experiment.json": {"model": "readers_model.json", "dt": 0.005, "t_end": 1.0,
                                "ensemble": 1, "seed": 7,
                                "initial": {"file": "readers_init.csv"}},
}


def commands(out):
    """(name, argv, allowed exit codes) in run order; paths under `out`."""
    cfg = lambda name: os.path.join(CONFIGS, name)
    cubic, single = cfg("experiment.json"), cfg("compare_single_mode.json")
    state = os.path.join(out, "simulate_state")
    runs = [("kernel_check_%s" % name[:-len(".kernel.json")],
             ["kernel", "check", cfg(name), "--nec", "1", "1", "--dafermos", "1",
              "--flatness"], (0, 1))
            for name in sorted(os.listdir(CONFIGS)) if name.endswith(".kernel.json")]
    runs += [("kernel_check_" + name,
              ["kernel", "check", os.path.join(out, "inputs", name + ".kernel.json"),
               "--nec", "1", "1", "--dafermos", "1", "--flatness"], (0, 1))
             for name in ("jump", "tab")]
    runs += [
        ("simulate_history", ["simulate", "--config", cubic, "--framework", "history",
                              "--cloud-every", "2",
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
        ("hypotheses_single_mode",
         ["hypotheses", "--config", single, "--radii", "1", "2", "4",
          "--out", os.path.join(out, "hypotheses_single_mode")], (0,)),
        ("attract", ["attract", "--bundle", os.path.join(state, "clouds"),
                     "--surrogate", os.path.join(out, "surrogate"),
                     "--out", os.path.join(out, "attract", "attract.csv")], (0,)),
    ]
    tabulated = os.path.join(out, "inputs", "tab_experiment.json")
    runs += [("simulate_tabulated_" + fw,
              ["simulate", "--config", tabulated, "--framework", fw,
               "--out", os.path.join(out, "simulate_tabulated_" + fw)], (0,))
             for fw in ("history", "state")]
    runs.append(("compare_tabulated", ["compare", "--config", tabulated,
                                       "--out", os.path.join(out, "compare_tabulated")],
                 (0,)))
    runs.append(("simulate_wide_cubic",
                 ["simulate", "--config", os.path.join(out, "inputs", "wide_experiment.json"),
                  "--out", os.path.join(out, "simulate_wide_cubic")], (0,)))
    past = os.path.join(out, "inputs", "past_experiment.json")
    runs += [("simulate_past_window_" + fw,
              ["simulate", "--config", past, "--framework", fw,
               "--out", os.path.join(out, "simulate_past_window_" + fw)], (0,))
             for fw in ("history", "state")]
    runs.append(("compare_past_window", ["compare", "--config", past,
                                         "--out", os.path.join(out, "compare_past_window")],
                 (0,)))
    runs.append(("simulate_state_fractional_step",
                 ["simulate", "--config", os.path.join(out, "inputs", "frac_experiment.json"),
                  "--framework", "state", "--cloud-every", "0.3",
                  "--out", os.path.join(out, "simulate_state_fractional_step")], (0,)))
    runs.append(("simulate_readers",
                 ["simulate", "--config", os.path.join(out, "inputs", "readers_experiment.json"),
                  "--out", os.path.join(out, "simulate_readers")], (0,)))
    return runs


def content(path):
    """A file's bytes, less summary.txt's `generated` timestamp line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "summary.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith(b'"generated":'))
    return data


def digest(path):
    return hashlib.sha256(content(path)).hexdigest()


def numbers(path):
    """The tokens of a file that read as floats, between separators."""
    out = []
    for token in re.split(rb"[\s,;:=\[\]{}()\"']+", content(path)):
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


def compare(a, b):
    """Lines naming each output that differs between kept DIRs a and b."""
    in_a, in_b = ({os.path.relpath(os.path.join(root, name), top)
                   for root, _, names in os.walk(top) if root != os.path.join(top, "inputs")
                   for name in names} for top in (a, b))
    lines = ["only in %s: %s" % (a, rel) for rel in sorted(in_a - in_b)]
    lines += ["only in %s: %s" % (b, rel) for rel in sorted(in_b - in_a)]
    for rel in sorted(in_a & in_b):
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        if digest(pa) == digest(pb):
            continue
        x, y = numbers(pa), numbers(pb)
        if len(x) != len(y):
            lines.append("%s  numbers differ in count (%d, %d)" % (rel, len(x), len(y)))
            continue
        scale = max(map(abs, x), default=0.0)
        delta = max((abs(p - q) for p, q in zip(x, y)), default=0.0)
        lines.append("%s  max |change| %.3g of max |value| %.6g (%.2g relative)"
                     % (rel, delta, scale, delta / scale if scale else float("inf")))
    return lines


def run_all(out):
    inputs = os.path.join(out, "inputs")
    os.makedirs(inputs)
    for name, content in {**JUMP, **TABULATED, **WIDE, **PAST, **FRACTIONAL,
                          **READERS}.items():
        with open(os.path.join(inputs, name), "w") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))
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
        if root == inputs:
            continue
        for name in files:
            path = os.path.join(root, name)
            yield os.path.relpath(path, out), digest(path)


def print_digest(out):
    for rel, sha in sorted(run_all(out)):
        print("%s  %s" % (sha, rel))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Hash the CLI outputs on configs/.")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--keep", metavar="DIR",
                       help="write the outputs to DIR, new or empty, and keep them")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="compare two DIRs written by --keep")
    args = parser.parse_args()
    if args.compare:
        lines = compare(*args.compare)
        for line in lines:
            print(line)
        sys.exit(1 if lines else 0)
    elif args.keep:
        if os.path.isdir(args.keep) and os.listdir(args.keep):
            sys.exit("%s is not empty" % args.keep)
        os.makedirs(args.keep, exist_ok=True)
        print_digest(args.keep)
    else:
        with tempfile.TemporaryDirectory() as out:
            print_digest(out)
