"""Configuration-driven experiment runner.

Subcommands: kernel, simulate, compare, energy-report, lk-split,
hypotheses, attract.  All numeric output is CSV with 17 significant digits
plus a JSON-formatted plain-text summary; reruns of the same config are
byte-identical apart from the timestamp header line.
"""

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .attractors import (
    attraction_rate,
    cloud_from_states,
    hausdorff_semidist,
    load_cloud_csv,
    save_cloud_csv,
)
from .evolution import (
    BlowUpError,
    integrate,
    integrate_ensemble,
    run_steps,
    sample_times,
    save_trajectory_csv,
    trajectory_metadata,
)
from .kernels import (
    KernelError,
    KernelFileError,
    _read_json_object,
    _read_table,
    check_dafermos,
    check_nec,
    flatness_rate,
    load_kernel_file,
    path_beside,
)
from .spaces import (
    ExtendedVector,
    HistoryField,
    ModalVector,
    StateField,
    lambda_map,
    norm_H,
    save_rows,
)
from .viscoelastic import (
    assemble,
    dissipation_rhs,
    draw_random_state,
    energy_sigma,
    hypothesis_probe_suite,
    lk_split,
    load_model_file,
    phi_functional,
)

@dataclass
class ExperimentConfig:
    kernel_path: str
    model_path: str
    framework: str
    dt: float
    t_end: float
    ensemble: int
    seed: int
    initial: object
    out_dir: str

    @classmethod
    def from_file(cls, path):
        raw = _read_json_object(path)
        rel = lambda name, p: path_beside(path, p, "config field %r" % name)
        if raw.get("model") is None:
            raise ValueError("config field 'model' is required")

        def checked(name, value, check):
            # the flag checks, on the JSON text of the value: 2.5 and true
            # are not integers, and NaN and Infinity are not finite
            try:
                return check(json.dumps(value))
            except argparse.ArgumentTypeError as exc:
                raise ValueError("config field %r %s" % (name, exc)) from None
        dt = checked("dt", raw.get("dt", 1e-3), _bounded(float))
        t_end = checked("t_end", raw.get("t_end", 10.0), _bounded(float))
        if dt <= 0 or t_end < dt:
            raise ValueError("config fields 'dt' and 't_end' need dt > 0 and t_end >= dt, "
                             "not %g and %g in %s" % (dt, t_end, path))
        framework = raw.get("framework", "history")
        if framework not in ("history", "state"):
            raise ValueError("config field 'framework' must be 'history' or "
                             "'state', not %r" % (framework,))
        ensemble = checked("ensemble", raw.get("ensemble", 1), _bounded(int, 1))
        initial = raw.get("initial", "zero")
        if isinstance(initial, dict) and "file" in initial:
            initial = {"file": rel("initial.file", initial["file"])}
            initial["row"] = _initial_row(initial["file"])
        elif isinstance(initial, dict) and "random_ball" in initial:
            ball = initial["random_ball"]
            if not isinstance(ball, dict):
                raise ValueError("config field 'initial.random_ball' must be an "
                                 "object, not %r" % (ball,))
            space = ball.get("space", "H0")
            if space not in ("H0", "H1"):
                raise ValueError("config field 'initial.random_ball.space' must be "
                                 "'H0' or 'H1', not %r" % (space,))
            initial = {"random_ball": {"space": space, "radius": checked(
                "initial.random_ball.radius", ball.get("radius"), _bounded(float, 0.0))}}
        elif initial != "zero":
            raise ValueError("config field 'initial' must be \"zero\", {\"random_ball\": "
                             "{...}} or {\"file\": path}, not %r in %s" % (initial, path))
        return cls(
            kernel_path=None if raw.get("kernel") is None else rel("kernel", raw["kernel"]),
            model_path=rel("model", raw["model"]),
            framework=framework, dt=dt, t_end=t_end, ensemble=ensemble,
            seed=checked("seed", raw.get("seed", 0), _bounded(int, 0)),
            initial=initial,
            out_dir=rel("out", raw.get("out", ".")))


def _initial_row(path):
    """The first row of an initial-data file, a text table with a header and
    finite cells; empty if it has none."""
    _, _, rows = _read_table(path, "config field 'initial.file'", finite=True)
    return rows[0] if rows else np.zeros(0)


def load_experiment(cfg):
    model, kernel_from_model = load_model_file(cfg.model_path)
    kpath = cfg.kernel_path
    if kpath is None:
        if kernel_from_model is None:
            raise ValueError("neither the config nor model field 'kernel' in %s names a "
                             "kernel file" % cfg.model_path)
        kpath = path_beside(cfg.model_path, kernel_from_model, "model field 'kernel'")
    try:
        kernel = load_kernel_file(kpath)
        assemble(model, kernel)   # the model's kernel rules, lk-split's included
    except KernelFileError:
        raise
    except KernelError as exc:
        raise KernelError("kernel file %s: %s" % (kpath, exc)) from None
    return model, kernel


def initial_state(cfg, model, kernel, index):
    recipe = cfg.initial
    lam = model.lambdas
    mem = HistoryField.zeros(kernel, lam) if cfg.framework == "history" \
        else StateField.zeros(kernel, lam)
    if recipe == "zero":
        return ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam), mem)
    if "random_ball" in recipe:
        ball = recipe["random_ball"]
        rng = np.random.default_rng([cfg.seed, index])
        return draw_random_state(model, kernel, ball["radius"], ball["space"], rng,
                                 framework=cfg.framework)
    data, J = recipe["row"], lam.size   # {"file": ...}, the last recipe from_file admits
    if data.size != 2 * J:
        raise ValueError("config field 'initial.file': the first data row of %s "
                         "must hold 2J = %d values (u_1..u_J, v_1..v_J), not %d"
                         % (recipe["file"], 2 * J, data.size))
    return ExtendedVector(ModalVector(data[:J], lam),
                          ModalVector(data[J:], lam), mem)


def write_summary(out_dir, payload):
    payload = dict(payload)
    payload["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kernel(args):
    try:
        kernel = load_kernel_file(args.file)
    except KernelFileError:
        raise                 # a malformed file exits 2, as every config error
    except KernelError as exc:
        print("kernel check failed: %s" % exc, file=sys.stderr)
        return 1
    # construction refuses an inadmissible kernel, so each of its checks passed
    rows = [
        ("kernel", kernel.kernel_id),
        ("mass k(0)", "%.10g" % kernel.mass),
        ("first moment", "%.10g" % kernel.first_moment),
        ("monotone", "pass"),
        ("unit moment", "pass"),
        ("jump list", "pass"),
        ("decay certificate (theta=%g, delta=%g)" % (kernel.theta, kernel.delta_decay),
         "pass (worst ratio %.8g)" % kernel.nec_worst),
    ]
    if args.nec:
        theta, delta = args.nec
        res = check_nec(kernel, theta, delta)
        rows.append(("domination (theta=%g, delta=%g)" % (theta, delta),
                     "%s (worst ratio %.8g)"
                     % ("pass" if res.passed else "FAIL", res.worst_ratio)))
    if args.dafermos is not None:
        ok = check_dafermos(kernel, args.dafermos)
        rows.append(("pointwise mu'+delta*mu<=0 (delta=%g)" % args.dafermos,
                     "pass" if ok else "FAIL"))
    if args.flatness:
        rows.append(("flatness rate", "%.10g" % flatness_rate(kernel)))
    width = max(len(r[0]) for r in rows)
    for name, val in rows:
        print("%-*s  %s" % (width, name, val))
    return 0


def _load_config(args):
    cfg = ExperimentConfig.from_file(args.config)
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def cmd_simulate(args):
    cfg = _load_config(args)
    if args.framework:
        cfg.framework = args.framework
    if args.cloud_every and not cfg.dt <= args.cloud_every <= cfg.t_end:
        raise ValueError("--cloud-every must be 0 or in [dt, t_end] = [%g, %g], "
                         "not %g" % (cfg.dt, cfg.t_end, args.cloud_every))
    model, kernel = load_experiment(cfg)
    ops = assemble(model, kernel)
    run_steps(cfg.dt, cfg.t_end, cfg.ensemble, model.lambdas.size)
    z0s = [initial_state(cfg, model, kernel, k) for k in range(cfg.ensemble)]
    os.makedirs(cfg.out_dir, exist_ok=True)
    trajs = integrate_ensemble(z0s, ops, kernel, cfg.framework, cfg.dt, cfg.t_end)
    cloud_times = []
    if args.cloud_every:
        cloud_times = list(sample_times(cfg.t_end, cfg.dt,
                                        int(round(cfg.t_end / args.cloud_every))))
    for k, traj in enumerate(trajs):
        base = os.path.join(cfg.out_dir, "traj_%d" % k)
        save_trajectory_csv(traj, base + ".csv")
        with open(base + ".meta.json", "w") as fh:
            json.dump(trajectory_metadata(traj, {"seed": cfg.seed, "member": k}),
                      fh, indent=2, sort_keys=True)
    if cloud_times:
        cdir = os.path.join(cfg.out_dir, "clouds")
        os.makedirs(cdir, exist_ok=True)
        for t in cloud_times:
            states = [traj.state_at(t, kernel) for traj in trajs]
            cloud = cloud_from_states(states, label="t=%.6g" % t,
                                      memory_stride=args.cloud_stride)
            save_cloud_csv(cloud, os.path.join(cdir, "cloud_t%.6f.csv" % t))
    # t_end need not be a grid multiple; report the last computed snapshot
    t_final = float(trajs[0].times[-1])
    final_norms = [norm_H(traj.state_at(t_final, kernel), 0) for traj in trajs]
    write_summary(cfg.out_dir, {
        "command": "simulate", "framework": cfg.framework, "seed": cfg.seed,
        "ensemble": cfg.ensemble, "dt": cfg.dt, "t_end": cfg.t_end,
        "t_final": t_final, "kernel": kernel.kernel_id,
        "final_norms_H0": final_norms})
    return 0


def cmd_compare(args):
    cfg = _load_config(args)
    model, kernel = load_experiment(cfg)
    ops = assemble(model, kernel)
    cfg.framework = "history"
    run_steps(cfg.dt, cfg.t_end, cfg.ensemble, model.lambdas.size)
    z0s = [initial_state(cfg, model, kernel, k) for k in range(cfg.ensemble)]
    os.makedirs(cfg.out_dir, exist_ok=True)
    trajs_h = integrate_ensemble(z0s, ops, kernel, "history", cfg.dt, cfg.t_end)
    z0s = [ExtendedVector(z0.u.copy(), z0.v.copy(), lambda_map(z0.memory, kernel))
           for z0 in z0s]
    trajs_s = integrate_ensemble(z0s, ops, kernel, "state", cfg.dt, cfg.t_end)
    worst, rows = 0.0, []
    for k, (h_run, s_run) in enumerate(zip(trajs_h, trajs_s)):
        # nothing reads the history rows again, so |du| and |dv| overwrite them
        gap = float(max(np.abs(np.subtract(h, s, out=h), out=h).max() for h, s in
                        ((h_run.u_snaps, s_run.u_snaps), (h_run.v_snaps, s_run.v_snaps))))
        worst = max(worst, gap)
        rows.append((float(k), gap))
    save_rows(os.path.join(cfg.out_dir, "compare.csv"), "member,max_uv_gap", rows)
    ok = worst <= args.tol
    write_summary(cfg.out_dir, {
        "command": "compare", "worst_uv_gap": worst, "tolerance": args.tol,
        "within_tolerance": bool(ok), "seed": cfg.seed, "t_end": cfg.t_end,
        "t_final": float(trajs_s[0].times[-1])})
    return 0 if ok else 1


def cmd_energy_report(args):
    cfg = _load_config(args)
    model, kernel = load_experiment(cfg)
    if not args.nu_small / 2.0 < kernel.mass:
        raise ValueError("--nu-small must be below twice the kernel mass k(0) = %g, "
                         "not %g" % (kernel.mass, args.nu_small))
    if abs(kernel.mass - 1.0) > 1e-6:
        print("note: kernel mass k(0)=%.6g differs from 1; energy diagnostics "
              "assume the unit normalization and are reported unrescaled"
              % kernel.mass, file=sys.stderr)
    cfg.framework = "history"
    ops = assemble(model, kernel)
    z0 = initial_state(cfg, model, kernel, 0)
    traj = integrate(z0, ops, kernel, "history", cfg.dt, cfg.t_end)
    ts = sample_times(cfg.t_end, cfg.dt, args.samples)
    rows = []
    phi_c = 0.0
    for t in ts:
        z = traj.state_at(t, kernel)
        # one pass over the history field serves E0's norm and the
        # dissipation rate; the sigma-norm serves E_sigma and the ratio
        mem_sq = z.memory.node_norms_sq(0.0)
        norm0 = norm_H(z, 0.0, mem_sq)
        norm = norm0 if args.sigma == 0.0 else norm_H(z, args.sigma)
        e0 = energy_sigma(z, 0.0, model, norm0)
        es = e0 if args.sigma == 0.0 else energy_sigma(z, args.sigma, model, norm)
        phi = phi_functional(z, args.sigma, args.nu_small, args.delta_split,
                             model, kernel)
        gam = es + args.eps * phi
        rows.append((t, e0, es, phi, gam, dissipation_rhs(z, 0.0, kernel, mem_sq)))
        # the control ratio |Phi| / ||z||^2_sigma, without a second Phi
        norm_sq = norm ** 2
        if norm_sq != 0.0:
            phi_c = max(phi_c, abs(phi) / norm_sq)
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_rows(os.path.join(cfg.out_dir, "energy.csv"),
              "time,E0,E_sigma,Phi,Gamma,dissipation_rhs", rows)
    gammas = np.array([r[4] for r in rows])
    fit = {}
    if np.all(gammas > 0):
        slope, intercept = np.polyfit(ts, np.log(gammas), 1)
        fit = {"gamma_decay_rate": float(-slope),
               "gamma_prefactor": float(np.exp(intercept))}
    write_summary(cfg.out_dir, {
        "command": "energy-report", "sigma": args.sigma, "eps": args.eps,
        "nu_small": args.nu_small, "delta_split": args.delta_split,
        "kernel_mass": kernel.mass, "phi_control_constant": phi_c,
        "seed": cfg.seed, "t_end": cfg.t_end,
        "t_final": float(traj.times[-1]), **fit})
    return 0


def cmd_lk_split(args):
    cfg = _load_config(args)
    model, kernel = load_experiment(cfg)
    cfg.framework = "history"
    z1 = initial_state(cfg, model, kernel, 0)
    rng = np.random.default_rng([cfg.seed, 9999])
    direction = draw_random_state(model, kernel, 1.0, "H0", rng)
    z2 = z1.copy()
    z2.u.coeffs = z1.u.coeffs + args.separation * direction.u.coeffs
    z2.v.coeffs = z1.v.coeffs + args.separation * direction.v.coeffs
    res = lk_split(z1, z2, model, kernel, cfg.t_end, cfg.dt)
    ts = sample_times(cfg.t_end, cfg.dt, args.samples)
    sep0 = norm_H(z1 - z2, 0)
    rows = []
    for t in ts:
        nl = norm_H(res.l_traj.state_at(t, kernel), 0)
        nk1 = norm_H(res.k_traj.state_at(t, kernel), 1)
        idx = res.d_traj.index_of(t)
        rows.append((t, nl, nk1, res.residual_rel[idx]))
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_rows(os.path.join(cfg.out_dir, "lk_split.csv"),
              "time,norm_L_H0,norm_K_H1,superposition_residual", rows)
    l_fit = attraction_rate(np.column_stack([ts, [r[1] for r in rows]])) \
        if not res.degenerate else None
    write_summary(cfg.out_dir, {
        "command": "lk-split", "separation": sep0,
        "degenerate": res.degenerate,
        "max_superposition_residual": float(np.max(res.residual_rel)),
        "omega_L": l_fit.omega if l_fit else None,
        "k_ratio_sup": float(max(r[2] for r in rows) / sep0) if sep0 > 0 else None,
        "seed": cfg.seed, "t_end": cfg.t_end,
        "t_final": float(res.d_traj.times[-1])})
    return 0


def cmd_hypotheses(args):
    cfg = _load_config(args)
    model, kernel = load_experiment(cfg)
    rep = hypothesis_probe_suite(model, kernel, tuple(args.radii),
                                 t_end=cfg.t_end, dt=cfg.dt,
                                 ensemble=cfg.ensemble, seed=cfg.seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_rows(os.path.join(cfg.out_dir, "hypotheses.csv"), "radius,plateau_H1,accel_sup",
              [(r, rep.plateau_h1[r], rep.accel_sup[r]) for r in rep.radii])
    write_summary(cfg.out_dir, {
        "command": "hypotheses", "radii": list(rep.radii),
        "plateau_H1": {str(k): v for k, v in rep.plateau_h1.items()},
        "plateau_spread": rep.plateau_spread,
        "identity_gap": rep.identity_gap,
        "accel_sup": {str(k): v for k, v in rep.accel_sup.items()},
        "sigma_plateaus": {str(k): v for k, v in rep.sigma_plateaus.items()},
        "seed": cfg.seed})
    return 0


def cmd_attract(args):
    bundle_files = sorted(os.listdir(args.bundle))
    surrogate = None
    for name in sorted(os.listdir(args.surrogate)):
        if not name.endswith(".csv"):
            continue
        c = load_cloud_csv(os.path.join(args.surrogate, name),
                           None if surrogate is None else surrogate.dim)
        surrogate = c if surrogate is None else \
            type(c)(np.vstack([surrogate.points, c.points]), c.label, c.norm)
    if surrogate is None:
        print("no surrogate clouds (*.csv) found in %s" % args.surrogate, file=sys.stderr)
        return 2
    rows = []
    for name in bundle_files:
        if not (name.startswith("cloud_t") and name.endswith(".csv")):
            continue
        path = os.path.join(args.bundle, name)
        try:
            t = float(name[len("cloud_t"):-len(".csv")])
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise ValueError("bundle file %s: the name must be cloud_t<finite time>.csv"
                             % path)
        cloud = load_cloud_csv(path, surrogate.dim)
        rows.append((t, hausdorff_semidist(cloud, surrogate)))
    if len(rows) < 5:
        print("need at least 5 bundle clouds in %s" % args.bundle, file=sys.stderr)
        return 2
    rows.sort()
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    save_rows(args.out, "time,dist", rows)
    try:
        fit = attraction_rate(np.array(rows))
        summary = {"command": "attract", "omega": fit.omega, "Q": fit.q,
                   "r_squared": fit.r_squared, "n_used": fit.n_used}
    except ValueError as exc:
        summary = {"command": "attract", "note": str(exc)}
    write_summary(out_dir, summary)
    return 0


# ---------------------------------------------------------------------------

def _bounded(kind, lo=-math.inf, hi=math.inf, above=False):
    """argparse type: a finite int or float in [lo, hi], or in (lo, hi] if `above`."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value <= hi
                and (value > lo if above else value >= lo)):
            raise argparse.ArgumentTypeError(
                "must be a finite %s in %s%g, %g], not %r"
                % (kind.__name__, "(" if above else "[", lo, hi, text))
        return value
    return parse


def build_parser():
    p = argparse.ArgumentParser(prog="memoryflow",
                                description=__doc__.splitlines()[0])
    p.add_argument("--tol", type=_bounded(float, 0.0), default=1e-4,
                   help="comparison tolerance")
    p.add_argument("--seed", type=_bounded(int, 0), default=None,
                   help="override the config seed")
    sub = p.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel", help="kernel admissibility checks")
    pk_sub = pk.add_subparsers(dest="kernel_command", required=True)
    pkc = pk_sub.add_parser("check")
    pkc.add_argument("file")
    pkc.add_argument("--nec", nargs=2, type=_bounded(float), metavar=("THETA", "DELTA"))
    pkc.add_argument("--dafermos", type=_bounded(float, 0.0, above=True),
                     metavar="DELTA")
    pkc.add_argument("--flatness", action="store_true")
    pkc.set_defaults(func=cmd_kernel)

    ps = sub.add_parser("simulate", help="integrate an ensemble")
    ps.add_argument("--config", required=True)
    ps.add_argument("--framework", choices=("history", "state"))
    ps.add_argument("--out")
    ps.add_argument("--cloud-every", type=float, default=0.0,
                    help="also write state clouds at this time spacing "
                    "(0 for none, else in [dt, t_end])")
    ps.add_argument("--cloud-stride", type=_bounded(int, 1), default=8,
                    help="memory-node thinning for cloud coordinates")
    ps.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("compare", help="history versus state frameworks")
    pc.add_argument("--config", required=True)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_compare)

    pe = sub.add_parser("energy-report", help="energy functionals along a run")
    pe.add_argument("--config", required=True)
    pe.add_argument("--out")
    pe.add_argument("--sigma", type=_bounded(float, 0.0, 1.0), default=0.0)
    pe.add_argument("--eps", type=_bounded(float, 0.0), default=0.05)
    pe.add_argument("--nu-small", dest="nu_small",
                    type=_bounded(float, 0.0, above=True), default=0.1)
    pe.add_argument("--delta-split", dest="delta_split",
                    type=_bounded(float, 0.0, above=True), default=0.5)
    # a decay-rate fit needs two points
    pe.add_argument("--samples", type=_bounded(int, 2), default=100)
    pe.set_defaults(func=cmd_energy_report)

    pl = sub.add_parser("lk-split", help="linear/compact difference split")
    pl.add_argument("--config", required=True)
    pl.add_argument("--out")
    pl.add_argument("--separation", type=_bounded(float), default=1e-3)
    # attraction_rate skips the first fifth and then wants 5 samples
    pl.add_argument("--samples", type=_bounded(int, 6), default=40)
    pl.set_defaults(func=cmd_lk_split)

    ph = sub.add_parser("hypotheses", help="boundedness probes over ball data")
    ph.add_argument("--config", required=True)
    ph.add_argument("--out")
    ph.add_argument("--radii", nargs="+", type=_bounded(float, 0.0, above=True),
                    default=[1.0, 2.0, 4.0])
    ph.set_defaults(func=cmd_hypotheses)

    pa = sub.add_parser("attract", help="bundle-to-surrogate distance decay")
    pa.add_argument("--bundle", required=True)
    pa.add_argument("--surrogate", required=True)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=cmd_attract)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlowUpError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, KernelError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
