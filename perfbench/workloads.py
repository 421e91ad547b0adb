"""Benchmark workloads: seeded input files, CLI command sequences, output checks.

Each workload writes the kernel, model and experiment JSON that the
`memoryflow` CLI consumes, and describes the commands of one repetition as
`Step`s.  A step knows its argv, an optional untimed preparation, and the
checks its outputs must pass.  The seed changes the data (random-ball
members, forcing coefficients), never the sizes, so every seed costs the same
work.

Tolerances come from the package's own bounds, not from the outputs of any
one commit, so optimisations that change roundoff stay legal:
- the L + K = D superposition residual of acceptance criterion 7 (1e-12);
- the 1e-3 history/state intertwining bound of acceptance criterion 4, used
  as the `compare --tol`.
"""

import glob
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

SUPERPOSITION_BOUND = 1e-12
INTERTWINING_BOUND = 1e-3
TIME_RTOL = 1e-9


@dataclass
class Step:
    """One CLI command of a repetition, with the checks on its outputs."""
    name: str
    argv: object                    # out_dir -> list of CLI arguments
    check: object                   # out_dir -> list of problems
    prepare: object = None          # out_dir -> None, run untimed first


@dataclass
class Workload:
    setup_config: str               # experiment file the set-up probe loads
    steps: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
    return path


def _experiment(in_dir, name, *, model, framework, dt, n_steps, ensemble,
                seed, initial):
    """Experiment file whose t_end is exactly n_steps * dt."""
    t_end = n_steps * dt
    if round(t_end / dt) != n_steps:
        raise ValueError("t_end %r is off the dt grid" % t_end)
    return _write(os.path.join(in_dir, name), {
        "model": model, "framework": framework, "dt": dt, "t_end": t_end,
        "ensemble": ensemble, "seed": seed, "initial": initial})


def _ball(radius, space):
    return {"random_ball": {"radius": radius, "space": space}}


def _forcing(rng, J, n_active, step=1):
    """Forcing g on every step-th of the first n_active modes, zero elsewhere."""
    g = np.zeros(J)
    active = np.arange(step - 1, n_active, step)
    g[active] = rng.uniform(-0.5, 0.5, active.size)
    return [float(x) for x in g]


def _antisymmetric_state(rng, J, path):
    """Initial (u, v) on the even modes only, unit H1 norm, written as CSV.

    Even sine modes are odd about x = pi/2, and the cubic term and an
    even-mode forcing keep u(pi - x) = -u(x) for all time.  Half the
    collocation values of u are then negative on every seed, which matters
    because the cost of `u ** 3` depends on the sign of its inputs.
    """
    lam = np.arange(1, J + 1, dtype=float) ** 2
    even = np.arange(1, J + 1) % 2 == 0
    u = np.where(even, rng.standard_normal(J) / lam, 0.0)
    v = np.where(even, rng.standard_normal(J) / lam, 0.0)
    scale = math.sqrt(float(np.sum(lam ** 2 * u ** 2 + lam * v ** 2)))
    header = ["u_%d" % (j + 1) for j in range(J)] + ["v_%d" % (j + 1) for j in range(J)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(",".join(repr(float(x)) for x in np.concatenate([u, v]) / scale) + "\n")
    return os.path.basename(path)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _load_csv(path, problems):
    """Numeric CSV body, skipping a header row; records unreadable or non-finite data."""
    try:
        with open(path) as fh:
            header_rows = 0 if fh.readline().startswith("#") else 1
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2,
                          skiprows=header_rows)
    except (OSError, ValueError) as exc:
        problems.append("%s unreadable: %s" % (os.path.basename(path), exc))
        return None
    if data.size == 0:
        problems.append("%s is empty" % os.path.basename(path))
        return None
    if not np.all(np.isfinite(data)):
        problems.append("%s has non-finite values" % os.path.basename(path))
    return data


def _summary(out, problems):
    path = os.path.join(out, "summary.txt")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append("summary unreadable: %s" % exc)
        return {}


def _check_final_time(data, t_end, label, problems):
    """The realized final time is the last CSV row's time column."""
    if data is not None and abs(data[-1, 0] - t_end) > TIME_RTOL * t_end:
        problems.append("%s ends at t=%r, expected %r" % (label, data[-1, 0], t_end))


def _check_trajectories(out, ensemble, t_end, problems):
    for k in range(ensemble):
        path = os.path.join(out, "traj_%d.csv" % k)
        if not os.path.exists(path):
            problems.append("missing traj_%d.csv" % k)
            continue
        _check_final_time(_load_csv(path, problems), t_end, "traj_%d" % k,
                          problems)
    norms = _summary(out, problems).get("final_norms_H0", [])
    if len(norms) != ensemble or not all(math.isfinite(x) for x in norms):
        problems.append("final_norms_H0 missing or non-finite")


def _finite_number(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def same_outputs(ref_dir, new_dir):
    """Differences between two output trees of the same command.

    Files must be byte-identical, except summary.txt, whose timestamp line
    is dropped before comparing.
    """
    def files(root):
        return sorted(os.path.relpath(p, root)
                      for p in glob.glob(os.path.join(root, "**", "*"), recursive=True)
                      if os.path.isfile(p))
    ref, new = files(ref_dir), files(new_dir)
    if ref != new:
        return ["output file sets differ from the first repetition"]
    problems = []
    for rel in ref:
        a, b = os.path.join(ref_dir, rel), os.path.join(new_dir, rel)
        if os.path.basename(rel) == "summary.txt":
            with open(a) as fa, open(b) as fb:
                ja, jb = json.load(fa), json.load(fb)
            ja.pop("generated", None), jb.pop("generated", None)
            same = ja == jb
        else:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                same = fa.read() == fb.read()
        if not same:
            problems.append("%s differs from the first repetition" % rel)
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def ensemble_cubic(in_dir, seed, tiny):
    J, members = 8, 4
    dt, n_steps = 2e-3, (100 if tiny else 300)
    rng = np.random.default_rng([seed, 1])
    _write(os.path.join(in_dir, "kernel.json"), {"family": "exponential", "delta": 1.0})
    _write(os.path.join(in_dir, "model.json"), {
        "J": J, "domain": "interval_pi", "f": "cubic",
        "g": _forcing(rng, J, 4), "kernel": "kernel.json"})
    exp = _experiment(in_dir, "experiment.json", model="model.json",
                      framework="history", dt=dt, n_steps=n_steps,
                      ensemble=members, seed=seed, initial=_ball(1.0, "H1"))
    t_end = n_steps * dt

    def check_simulate(out):
        problems = []
        _check_trajectories(out, members, t_end, problems)
        return problems

    def check_lk(out):
        problems = []
        data = _load_csv(os.path.join(out, "lk_split.csv"), problems)
        _check_final_time(data, t_end, "lk_split", problems)
        s = _summary(out, problems)
        resid = s.get("max_superposition_residual")
        if not _finite_number(resid) or resid > SUPERPOSITION_BOUND:
            problems.append("superposition residual %r above %g"
                            % (resid, SUPERPOSITION_BOUND))
        if s.get("degenerate") is not False:
            problems.append("lk-split separation is degenerate")
        return problems

    return Workload(exp, [
        Step("simulate", lambda out: ["simulate", "--config", exp, "--out", out],
             check_simulate),
        Step("lk-split", lambda out: ["lk-split", "--config", exp, "--out", out],
             check_lk),
    ])


def wide_cubic(in_dir, seed, tiny):
    J = 16 if tiny else 128
    dt, n_steps = 1e-3, (100 if tiny else 500)
    rng = np.random.default_rng([seed, 2])
    _write(os.path.join(in_dir, "kernel.json"), {"family": "exponential", "delta": 1.0})
    _write(os.path.join(in_dir, "model.json"), {
        "J": J, "domain": "interval_pi", "f": "cubic",
        "g": _forcing(rng, J, 8, step=2), "kernel": "kernel.json"})
    initial = _antisymmetric_state(rng, J, os.path.join(in_dir, "initial.csv"))
    exp = _experiment(in_dir, "experiment.json", model="model.json",
                      framework="history", dt=dt, n_steps=n_steps, ensemble=1,
                      seed=seed, initial={"file": initial})
    t_end = n_steps * dt

    def check_energy(out):
        problems = []
        data = _load_csv(os.path.join(out, "energy.csv"), problems)
        _check_final_time(data, t_end, "energy", problems)
        s = _summary(out, problems)
        if not _finite_number(s.get("phi_control_constant")):
            problems.append("phi_control_constant missing or non-finite")
        return problems

    return Workload(exp, [
        Step("energy-report",
             lambda out: ["energy-report", "--config", exp, "--out", out,
                          "--samples", "10"],
             check_energy),
    ])


def long_memory(in_dir, seed, tiny):
    # delta = 2 puts the kernel cutoff s_max at 11.52, so at dt = 1e-3 the
    # full window is W = s_max/dt = 11520 nodes; the horizon of 14 runs past
    # s_max, where every force evaluation spans the whole window.
    J = 8 if tiny else 32
    dt, n_steps = 1e-3, (200 if tiny else 14000)
    _write(os.path.join(in_dir, "kernel.json"), {"family": "exponential", "delta": 2.0})
    _write(os.path.join(in_dir, "model.json"), {
        "J": J, "domain": "interval_pi", "f": "zero", "kernel": "kernel.json"})
    exp = _experiment(in_dir, "experiment.json", model="model.json",
                      framework="history", dt=dt, n_steps=n_steps, ensemble=1,
                      seed=seed, initial=_ball(1.0, "H0"))

    def check_compare(out):
        problems = []
        _load_csv(os.path.join(out, "compare.csv"), problems)
        s = _summary(out, problems)
        gap = s.get("worst_uv_gap")
        if not _finite_number(gap) or gap > INTERTWINING_BOUND:
            problems.append("history/state gap %r above %g"
                            % (gap, INTERTWINING_BOUND))
        return problems

    return Workload(exp, [
        Step("compare",
             lambda out: ["--tol", repr(INTERTWINING_BOUND), "compare",
                          "--config", exp, "--out", out],
             check_compare),
    ])


def state_readback(in_dir, seed, tiny):
    J, members = 8, 2
    dt = 2e-3
    n_steps, n_clouds = (400, 8) if tiny else (800, 20)
    t_end = n_steps * dt
    cloud_every = t_end / n_clouds
    rng = np.random.default_rng([seed, 4])
    _write(os.path.join(in_dir, "kernel.json"), {"family": "exponential", "delta": 1.0})
    _write(os.path.join(in_dir, "model.json"), {
        "J": J, "domain": "interval_pi", "f": "cubic",
        "g": _forcing(rng, J, 4), "kernel": "kernel.json"})
    exp = _experiment(in_dir, "experiment.json", model="model.json",
                      framework="state", dt=dt, n_steps=n_steps,
                      ensemble=members, seed=seed, initial=_ball(1.0, "H1"))
    sim_out = {}

    def simulate_argv(out):
        sim_out["dir"] = out
        return ["simulate", "--framework", "state", "--config", exp,
                "--out", out, "--cloud-every", repr(cloud_every)]

    def check_simulate(out):
        problems = []
        _check_trajectories(out, members, t_end, problems)
        clouds = glob.glob(os.path.join(out, "clouds", "cloud_t*.csv"))
        if len(clouds) != n_clouds:
            problems.append("%d clouds written, expected %d" % (len(clouds), n_clouds))
        for path in clouds:
            _load_csv(path, problems)
        return problems

    def cloud_time(path):
        return float(os.path.basename(path)[len("cloud_t"):-len(".csv")])

    def prepare_attract(out):
        # late-time surrogate: the last cloud of the bundle
        clouds = glob.glob(os.path.join(sim_out["dir"], "clouds", "cloud_t*.csv"))
        os.makedirs(os.path.join(out, "surrogate"), exist_ok=True)
        if clouds:
            shutil.copy(max(clouds, key=cloud_time), os.path.join(out, "surrogate"))

    def attract_argv(out):
        return ["attract", "--bundle", os.path.join(sim_out["dir"], "clouds"),
                "--surrogate", os.path.join(out, "surrogate"),
                "--out", os.path.join(out, "attract.csv")]

    def check_attract(out):
        problems = []
        _load_csv(os.path.join(out, "attract.csv"), problems)
        s = _summary(out, problems)
        if not (_finite_number(s.get("omega")) and _finite_number(s.get("Q"))):
            problems.append("attract summary has no fit: %s" % s.get("note"))
        return problems

    return Workload(exp, [
        Step("simulate", simulate_argv, check_simulate),
        Step("attract", attract_argv, check_attract, prepare_attract),
    ])


BUILDERS = {
    "ensemble_cubic": ensemble_cubic,
    "wide_cubic": wide_cubic,
    "long_memory": long_memory,
    "state_readback": state_readback,
}


def build(name, in_dir, seed, tiny=False):
    os.makedirs(in_dir, exist_ok=True)
    return BUILDERS[name](in_dir, seed, tiny)
