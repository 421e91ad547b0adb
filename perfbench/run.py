"""End-to-end benchmark of the memoryflow CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ensemble_cubic --seed 1 --seconds 25 --trace 0

The benchmark writes seeded input files, then drives `memoryflow.cli.main`
in-process as a closed loop: one client, one command at a time.  A
repetition is the workload's whole command sequence; repetitions run while
the next one is expected to end within `--seconds` (at least MIN_REPS of
them) and are reported by their mean.  The first repetition is a warm-up
and the reference for the byte-identical rerun check of the others.

--trace 0 reports the end-to-end metrics (wall_rel, setup_s, peak_rss_mb);
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of perfbench/tracer.py plus the tracing overhead.  Every
command's outputs are checked; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Details, provenance and the
trace are written under .perfbench_out/ in the checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: the benchmark is a single-client closed loop, and a fixed
# thread count keeps BLAS reductions, hence the outputs, byte-identical.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
MIN_REPS = 2                    # timed repetitions, after the warm-up one
YARDSTICK_SHARE = 0.2           # yardstick time per repetition, as a share of it

SETUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from memoryflow import cli
cfg = cli.ExperimentConfig.from_file(sys.argv[2])
model, kernel = cli.load_experiment(cfg)
cli.assemble(model, kernel)
"""

# Which layers must carry the largest self time on each workload.
DOMINANT = {
    "ensemble_cubic": ("evolution.integrate", "viscoelastic.f_modal"),
    "wide_cubic": ("viscoelastic.f_modal",),
    "long_memory": ("evolution.memory_force",),
    "state_readback": ("evolution.reconstruct_xi",),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the smoke test")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(ROOT, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    return fh.read().strip()
            with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
            return None
        return head
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "memoryflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": BLAS_THREADS,
    }


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

class Runner:
    """Runs repetitions of one workload and keeps the check tally."""

    def __init__(self, workload, work_dir, cli_main, same_outputs):
        self.workload = workload
        self.work_dir = work_dir
        self.cli_main = cli_main
        self.same_outputs = same_outputs
        self.attempted = 0
        self.failures = []
        self.reps = 0
        self.ref_dir = None

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"op": label, "problems": problems})

    def rep(self):
        """One repetition; returns its wall time, the sum of the timed commands."""
        rep_dir = os.path.join(self.work_dir, "rep%d" % self.reps)
        self.reps += 1
        wall = 0.0
        for step in self.workload.steps:
            out = os.path.join(rep_dir, step.name)
            os.makedirs(out, exist_ok=True)
            if step.prepare is not None:
                step.prepare(out)
            argv = step.argv(out)
            sink = io.StringIO()
            problems = []
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = self.cli_main(argv)
            except Exception:  # a crashing command is a failed operation
                rc = None
                problems.append(traceback.format_exc(limit=3))
            wall += time.perf_counter() - start
            if rc != 0:
                problems.append("exit code %r: %s" % (rc, sink.getvalue()[-500:]))
            else:
                problems += step.check(out)
            if self.ref_dir is not None:
                problems += self.same_outputs(os.path.join(self.ref_dir, step.name), out)
            self.record("rep%d/%s" % (self.reps - 1, step.name), problems)
        if self.ref_dir is None:
            self.ref_dir = rep_dir
        else:
            shutil.rmtree(rep_dir)
        return wall


def setup_probe(config, runner, times):
    """Time one fresh process that imports, parses, builds and assembles."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, config],
                          capture_output=True, text=True, cwd=ROOT)
    times.append(time.perf_counter() - start)
    runner.record("setup%d" % (len(times) - 1), [] if proc.returncode == 0 else
                  ["set-up probe exit %d: %s" % (proc.returncode, proc.stderr[-500:])])


def make_yardstick(np):
    """One unit of fixed work whose wall time tracks the host's current speed.

    The host's speed drifts by tens of percent over minutes, which no run
    length averages away.  The yardstick is timed between repetitions, and
    `wall_rel` divides the repetitions' wall time by it.  It spends about
    equal time (some 3 ms each on a 2.0 GHz Xeon) in the three kinds of work
    the workloads do, which the host's drift slows by different amounts: a
    pure-Python loop, a loop of small-array numpy calls like the stepper's,
    and matrix-vector products the shape of a full memory window
    (11520 x 32), which spill the L2 cache.  It is the benchmark's own code,
    so no change to the package moves it.
    """
    window = np.linspace(0.0, 1.0, 11520 * 32).reshape(11520, 32)
    weights = np.linspace(1.0, 0.0, 11520)
    mix = 0.5 * np.eye(8)

    def unit():
        s = 0
        for i in range(30000):
            s += i * i % 7
        x = np.linspace(0.0, 1.0, 8)
        for _ in range(450):
            x = x + 1e-3 * np.sin(mix @ x) ** 3
        y = np.zeros(32)
        for _ in range(20):
            y += weights @ window
        return s, x, y
    return unit


def _median(values):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run_untraced(runner, seconds, config, yardstick):
    """A warm-up repetition, then timed ones until `seconds` have passed.

    Before each timed repetition, and once after the last, the yardstick
    runs for about a fifth of the previous repetition's time.  `wall_rel` is
    the mean repetition wall time over the mean yardstick unit time, both
    taken over the whole run, so a drift of the host's speed moves numerator
    and denominator together.
    The set-up probes are spread evenly over the run for the same reason.
    """
    walls, setups, yard = [], [], [0.0, 0]     # yardstick seconds, units

    def measure_yardstick():
        t0 = time.perf_counter()
        while True:
            yardstick()
            yard[1] += 1
            if time.perf_counter() - t0 >= YARDSTICK_SHARE * last:
                break
        yard[0] += time.perf_counter() - t0

    start = time.perf_counter()
    deadline = start + seconds
    last = runner.rep()
    while (len(walls) < MIN_REPS or
           time.perf_counter() + (1 + YARDSTICK_SHARE) * last <= deadline):
        if time.perf_counter() >= start + len(setups) * seconds / SETUP_PROBES:
            setup_probe(config, runner, setups)
        measure_yardstick()
        last = runner.rep()
        walls.append(last)
    # one more sample after the last repetition, so every one is bracketed
    measure_yardstick()
    while len(setups) < SETUP_PROBES:
        setup_probe(config, runner, setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.fmean(walls)
    yard_s = yard[0] / yard[1]
    metrics = {
        "wall_rel": {"value": wall_s / yard_s, "unit": "yardstick"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    detail = {"wall_s": wall_s, "yardstick_s": yard_s, "yardstick_units": yard[1],
              "wall_s_reps": walls, "setup_s_probes": setups}
    return metrics, detail


def run_traced(runner, seconds, tracer_mod, workload_name):
    tracer = tracer_mod.Tracer()
    plain, traced, per_rep = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        plain.append(runner.rep())
        tracer.reset()
        tracer.rep = runner.reps
        tracer.install()
        try:
            traced.append(runner.rep())
        finally:
            tracer.uninstall()
        per_rep.append((tracer.metrics(), tracer.self_times()))
    overhead = statistics.median(traced) - statistics.median(plain)
    values = {k: _median([m[k] for m, _ in per_rep]) for k in per_rep[0][0]}
    values["trace.overhead_s"] = overhead
    metrics = {k: {"value": values[k], "unit": tracer_mod.METRIC_UNITS[k]}
               for k in tracer_mod.METRIC_UNITS if k in values}
    self_s = {k: _median([s[k] for _, s in per_rep]) for k in per_rep[0][1]}
    claim = DOMINANT[workload_name]
    claimed = sum(self_s.get(k, 0.0) for k in claim)
    rivals = {k: v for k, v in self_s.items() if k not in claim}
    top = max(rivals, key=rivals.get) if rivals else None
    dominance = {"claimed": list(claim), "claimed_self_s": claimed,
                 "largest_other": top, "largest_other_s": rivals.get(top, 0.0),
                 "confirmed": top is None or claimed > rivals[top]}
    detail = {"untraced_wall_s_reps": plain, "traced_wall_s_reps": traced,
              "self_s": self_s, "dominance": dominance,
              "trace": tracer.dump()}
    return metrics, detail


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import numpy as np
        from memoryflow import cli
    except ImportError as exc:
        print("cannot import memoryflow from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("memoryflow imported from %s, not from %s" % (cli.__file__, SRC),
              file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.BUILDERS:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.BUILDERS)), file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench_out", "%s-seed%d-trace%d"
                            % (args.workload, args.seed, args.trace))
    shutil.rmtree(work_dir, ignore_errors=True)
    workload = workloads.build(args.workload, os.path.join(work_dir, "inputs"),
                               args.seed, args.tiny)
    runner = Runner(workload, work_dir, cli.main, workloads.same_outputs)
    prov = provenance(args, np)
    if args.trace:
        metrics, detail = run_traced(runner, args.seconds, tracer_mod, args.workload)
    else:
        metrics, detail = run_untraced(runner, args.seconds, workload.setup_config,
                                       make_yardstick(np))
    shutil.rmtree(runner.ref_dir, ignore_errors=True)

    failed = len(runner.failures)
    fail_frac = failed / runner.attempted
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, "attempted": runner.attempted,
                   "failed": failed, "fail_frac": fail_frac,
                   "failures": runner.failures, "repetitions": runner.reps,
                   **detail}, fh, indent=1, sort_keys=True)

    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("%-32s %14.6g s  (one yardstick: %.6g s)"
              % ("wall_s, not normalised", detail["wall_s"], detail["yardstick_s"]))
    print("%-32s %14.6g (%d of %d checked operations failed)"
          % ("fail_frac", fail_frac, failed, runner.attempted))
    for f in runner.failures[:5]:
        print("FAILED %s: %s" % (f["op"], "; ".join(f["problems"])[:300]))
    if args.trace:
        d = detail["dominance"]
        print("dominant self time: %s %.4g s vs largest other %s %.4g s: %s"
              % ("+".join(d["claimed"]), d["claimed_self_s"], d["largest_other"],
                 d["largest_other_s"], "confirmed" if d["confirmed"] else "MISSED"))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
