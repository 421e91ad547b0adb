"""Spectral Galerkin viscoelastic wave model and its energy diagnostics.

The equation u_tt - Lap(u) - int k(s) Lap(u_t(t-s)) ds + f(u) = g with
Dirichlet conditions is discretized on the eigenpairs of -Lap; the default
domain is the interval (0, pi) with lambda_j = j^2 and sine eigenfunctions.
The nonlinearity is evaluated pseudospectrally on the 2J points
x_m = pi*m/(2J + 1), the fewest equispaced points on which projecting a
cubic back onto J modes is exact (see `CollocationTransform`).
"""

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .evolution import (
    ModelOperators,
    Trajectory,
    _interp_many,
    integrate_ensemble,
)
from .kernels import (
    KernelError,
    _read_json_object,
    _read_table,
    finite_number,
    flatness_rate,
    path_beside,
    split_sets,
    truncated_kernel,
)
from .spaces import ExtendedVector, HistoryField, ModalVector, StateField, norm_H

F_SELECTORS = ("zero", "cubic", "cubic_minus_linear")


class CollocationTransform:
    """Modal <-> pointwise transforms on the de-aliasing grid.

    The grid is x_m = pi*m/M, m = 1..M-1, with M = 2J + 1, and the weight
    is pi/M.  With it sin(a x) sin(b x) sums exactly to (pi/2) [a = b]
    whenever a + b < 2M.  u^3 has sine modes up to 3J and is projected
    on modes up to J, so a + b <= 4J < 4J + 2 and the Galerkin projection
    of u^3 is exact for trigonometric polynomials.  M = 2J is not enough:
    it aliases mode 3J onto mode J.  Both transforms act on the last axis
    as one `np.matvec` each, so a row of a batch gets the same bits as the
    same vector transformed alone; `to_modal` reads `analysis`, the
    transpose of `sines` times the weight, made contiguous once.
    """

    def __init__(self, n_modes):
        M = 2 * n_modes + 1
        m = np.arange(1, M)
        j = np.arange(1, n_modes + 1)
        x = math.pi * m / M
        self.sines = math.sqrt(2.0 / math.pi) * np.sin(np.outer(x, j))
        self.analysis = np.ascontiguousarray((math.pi / M) * self.sines.T)

    def to_physical(self, u):
        return np.matvec(self.sines, u)

    def to_modal(self, phys):
        return np.matvec(self.analysis, phys)


@dataclass
class GalerkinModel:
    """Eigenpairs, collocation transforms, nonlinearity, and forcing."""
    lambdas: np.ndarray
    collocation: CollocationTransform
    f_spec: str
    beta: float
    g: np.ndarray
    f_growth_c: float

    @property
    def J(self):
        return self.lambdas.size


def _check_modes(J):
    """Refuse a mode count J that is not an integer >= 1 (a bool included)."""
    if isinstance(J, bool) or not isinstance(J, numbers.Integral) or J < 1:
        raise ValueError("model field 'J' must be an integer >= 1, not %r" % (J,))


def make_model(J, f="cubic", beta=0.0, g=None, lambdas=None):
    """Build a model on (0, pi) (lambda_j = j^2) or on given eigenvalues.

    Admissible nonlinearities: zero, cubic u^3, and u^3 - beta*u with
    beta < lambda_1 so the dissipation condition holds structurally.  f is
    collocated on the interval's sines, so given eigenvalues (another
    domain) admit only f = "zero", and there must be J of them.
    """
    _check_modes(J)
    lam = np.arange(1, J + 1, dtype=float) ** 2 if lambdas is None \
        else np.asarray(lambdas, dtype=float)
    if lam.shape != (J,):
        raise ValueError("J = %r, but %d eigenvalues were given" % (J, lam.size))
    if not (np.all(np.isfinite(lam)) and lam[0] > 0 and np.all(np.diff(lam) >= 0)):
        raise ValueError("eigenvalues must be finite, positive and nondecreasing")
    if f not in F_SELECTORS:
        raise ValueError("unknown nonlinearity %r" % f)
    if lambdas is not None and f != "zero":
        raise ValueError("f = %r is collocated on the interval (0, pi); a domain "
                         "given by its eigenvalues admits only f = 'zero'" % (f,))
    if f == "cubic_minus_linear" and not beta < lam[0]:
        raise ValueError("beta must be below the first eigenvalue")
    if f != "cubic_minus_linear":
        beta = 0.0
    g_arr = np.zeros(lam.size) if g is None else np.asarray(g, dtype=float)
    if g_arr.shape != lam.shape:
        raise ValueError("g must supply one coefficient per mode")
    growth = 0.0 if f == "zero" else 6.0
    return GalerkinModel(lambdas=lam, collocation=CollocationTransform(lam.size),
                         f_spec=f, beta=float(beta), g=g_arr, f_growth_c=growth)


def f_modal(model, u):
    """Modal coefficients of f(u) by de-aliased collocation."""
    if model.f_spec == "zero":
        return np.zeros_like(u)
    phys = model.collocation.to_physical(u)
    out = model.collocation.to_modal(phys * phys * phys)
    if model.f_spec == "cubic_minus_linear":
        out = out - model.beta * u
    return out


def assemble(model, kernel):
    """Model operators for the memory systems; checks kernel admissibility.

    The simulated model requires an absolutely continuous kernel (no jumps)
    whose density is strictly decreasing almost everywhere.
    """
    if kernel.has_jumps:
        raise KernelError("viscoelastic model requires a jump-free kernel")
    if flatness_rate(kernel) > 0.0:
        raise KernelError("viscoelastic model requires mu' < 0 a.e. "
                          "(kernel has flat zones)")
    # f_modal is looked up at call time, so a wrapper set on the module sees it
    return ModelOperators(model.lambdas, model.g,
                          None if model.f_spec == "zero" else
                          lambda u: f_modal(model, u))


# ---------------------------------------------------------------------------
# energy functionals
# ---------------------------------------------------------------------------

def energy_sigma(z, sigma, model, norm=None):
    """E_sigma: squared norms plus twice the pairing of f(u) - g with A^sigma u.

    `norm` is `norm_H(z, sigma)` when the caller has it.
    """
    lam = model.lambdas
    u = z.u.coeffs
    pairing = float(np.sum((f_modal(model, u) - model.g) * lam ** sigma * u))
    if norm is None:
        norm = norm_H(z, sigma)
    return norm ** 2 + 2.0 * pairing


def dissipation_rhs(z, sigma, kernel, mem_sq=None):
    """Grid value of int mu'(s) ||eta(s)||^2_{sigma-1} ds (nonpositive).

    `mem_sq` is `z.memory.node_norms_sq(sigma)` when the caller has it.
    """
    mem = z.memory
    mup = kernel.mu_prime_grid if np.array_equal(mem.nodes, kernel.grid) \
        else np.asarray(kernel.mu_prime(mem.nodes), dtype=float)
    if mem_sq is None:
        mem_sq = mem.node_norms_sq(sigma)
    return float(np.sum(mup * mem_sq) * mem.ds)


@functools.lru_cache(maxsize=1)
def _phi_weights(kernel, nu_small, delta_split, node_bytes, ds):
    """Node weights of terms 1 and 3 of `phi_functional`.

    They depend on the kernel, the flags and the nodes (given as bytes, so
    that they key the cache) but not on the state: mu_nu at the nodes, and
    the forward cumulative mass of the non-dissipative set P from each node
    (its own cell counted half).  Only the last answer is kept, which every
    sample of an energy report shares; more would keep old kernels alive.
    """
    nodes = np.frombuffer(node_bytes)
    _, mu_nu = truncated_kernel(kernel, nu_small)
    mu_nu_vals = np.asarray(mu_nu(nodes), dtype=float)
    p_mask, _ = split_sets(kernel, delta_split, nodes)
    mu_p = np.asarray(kernel.mu(nodes), dtype=float) * p_mask
    kappa = np.cumsum((mu_p * ds)[::-1])[::-1] - 0.5 * mu_p * ds
    return mu_nu_vals, kappa


def phi_functional(z, sigma, nu_small, delta_split, model, kernel):
    """Three-term auxiliary functional used to reconstruct the energy.

    Term 1 pairs v against the history through the truncated kernel, term 2
    is (1 - 2 nu) <v, u>_sigma, term 3 integrates the forward mass of the
    non-dissipative set against ||eta - A u||^2_{sigma-1}.
    """
    mem = z.memory
    if not isinstance(mem, HistoryField):
        raise ValueError("phi functional needs a history-type state")
    lam = model.lambdas
    u, v = z.u.coeffs, z.v.coeffs
    mu_nu_vals, kappa = _phi_weights(
        kernel, nu_small, delta_split,
        np.ascontiguousarray(mem.nodes, dtype=float).tobytes(), mem.ds)
    lamw = lam ** (sigma - 1.0)

    lamw_v = lamw * v
    pairing = mem.per_node(lambda rows: np.vecdot(rows, lamw_v))
    t1 = -float(np.sum(mu_nu_vals * pairing)) * mem.ds

    t2 = (1.0 - 2.0 * nu_small) * float(np.sum(lam ** sigma * v * u))

    lam_u = lam * u

    def gap_sq(rows):
        diff = rows - lam_u
        return np.vecdot(np.square(diff, out=diff), lamw)

    t3 = float(np.sum(kappa * mem.per_node(gap_sq))) * mem.ds
    return t1 + t2 + t3


# ---------------------------------------------------------------------------
# trajectory difference decomposition
# ---------------------------------------------------------------------------

@dataclass
class LKSplitResult:
    l_traj: Trajectory
    k_traj: Trajectory
    d_traj: Trajectory
    residual_rel: np.ndarray          # per step, relative to the state scale
    base_gap_rel: float               # D versus literal difference of bases
    degenerate: bool


def lk_split(z1, z2, model, kernel, t_end, dt):
    """Decompose the difference of two runs into linear and forced parts.

    Five systems advance as the rows of one batch: the two nonlinear bases,
    the difference system D driven by the stage values of f(u1) - f(u2) from
    the base rows, the homogeneous linear part L with data z1 - z2, and the
    forced part K with zero data.  D, L and K share one affine code path and
    the same forcing arrays, so L + K = D up to roundoff, which the
    residual series records relative to the base state scale.
    """
    lam = model.lambdas
    d0 = z1 - z2
    k0 = ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam),
                        HistoryField.zeros(kernel, lam))
    degenerate = bool(np.max(np.abs(d0.u.coeffs)) == 0.0
                      and np.max(np.abs(d0.v.coeffs)) == 0.0
                      and not np.any(d0.memory.values))

    # rows b1, b2, d, l, k: only the bases see f, and d and k are driven by
    # the difference of the base rows' f at the same stage; for finite f the
    # product with 0 and +-1 adds only +-0.0 to f1, f2 and f1 - f2, which
    # keeps their bits, since f_modal's sums never end at -0.0
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [0.0, 0.0], [1.0, -1.0]])

    def f(u):
        out = rows @ f_modal(model, u[:2])
        out[3] = 0.0            # 0.0, not the -0.0 of 0 f1 + 0 f2 where both are negative
        return out

    g_rows = np.zeros((5, lam.size))
    g_rows[:2] = model.g
    ops = ModelOperators(lam, g_rows, f)
    b1, b2, d, l, k = integrate_ensemble([z1, z2, d0, d0, k0], ops, kernel,
                                         "history", dt, t_end)

    scale0 = max(norm_H(z1, 0), norm_H(z2, 0), 1e-30)
    gap_u = l.u_snaps + k.u_snaps - d.u_snaps
    gap_v = l.v_snaps + k.v_snaps - d.v_snaps
    num = np.sqrt(np.sum(lam * gap_u ** 2, axis=1) + np.sum(gap_v ** 2, axis=1))
    sc = np.maximum(scale0, np.sqrt(np.sum(lam * b1.u_snaps ** 2, axis=1)
                                    + np.sum(b1.v_snaps ** 2, axis=1)))
    base_gap = float(np.max(np.abs(d.u_snaps - (b1.u_snaps - b2.u_snaps))))
    return LKSplitResult(
        l_traj=l, k_traj=k, d_traj=d,
        residual_rel=num / sc, base_gap_rel=base_gap / scale0,
        degenerate=degenerate)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass
class ConditionProbeReport:
    sup_norm: float
    times: np.ndarray = field(repr=False)
    series: np.ndarray = field(repr=False)


def condition_asso_probe(traj, kernel, n_samples=60):
    """sup over time of the extended norm of (x(t), psi^t).

    psi^t(s) = A u(t) - A u((t-s)+) is assembled from stored snapshots as a
    history field, whose component norm is ||u(t) - u((t-s)+)||_1.
    """
    lam = traj.lambdas
    nodes = kernel.grid
    wts = kernel.mu_grid * kernel.ds
    ts = np.unique(np.round(np.linspace(0.0, traj.times[-1], n_samples)
                            / traj.dt) * traj.dt)
    series = np.empty(ts.size)
    for i, t in enumerate(ts):
        idx = traj.index_of(t)
        u, v = ModalVector(traj.u_snaps[idx], lam), ModalVector(traj.v_snaps[idx], lam)
        past = _interp_many(traj.u_snaps, np.maximum(t - nodes, 0.0) / traj.dt, lam)
        psi = HistoryField(nodes, lam * u.coeffs - past, wts, lam, kernel.ds)
        series[i] = norm_H(ExtendedVector(u, v, psi), 0)
    return ConditionProbeReport(float(np.max(series)), ts, series)


def draw_random_state(model, kernel, radius, space, rng, framework="history"):
    """Random modal data with lambda^{-1} spectral decay, rescaled to a ball.

    Memory starts empty; `space` picks the norm (H0 or H1) that the radius
    refers to.
    """
    lam = model.lambdas
    u = rng.standard_normal(lam.size) / lam
    v = rng.standard_normal(lam.size) / lam
    mem = HistoryField.zeros(kernel, lam) if framework == "history" \
        else StateField.zeros(kernel, lam)
    z = ExtendedVector(ModalVector(u, lam), ModalVector(v, lam), mem)
    if space not in ("H0", "H1"):
        raise ValueError("space must be 'H0' or 'H1', not %r" % (space,))
    iota = int(space[1])
    nz = norm_H(z, iota)
    if nz > 0:
        z.u.coeffs *= radius / nz
        z.v.coeffs *= radius / nz
    return z


@dataclass
class HypothesisProbeReport:
    radii: tuple
    plateau_h1: dict                  # radius -> plateau of the H1 norm
    accel_sup: dict                   # radius -> sup_t ||u_tt||
    identity_gap: float               # max |  ||A v||_{-1} - ||v||_1  |
    sigma_plateaus: dict              # sigma -> plateau at the largest radius
    plateau_spread: float             # max/min - 1 across radii


def hypothesis_probe_suite(model, kernel, radii, *, t_end=30.0, dt=2e-3,
                           ensemble=2, seed=0):
    """Empirical boundedness probes over ensembles of ball data.

    Reports the late-time plateau of the H1 norm per radius, the sup of the
    acceleration read off the equation, the exact bound ||A v||_{-1} =
    ||v||_1 on random data, and sigma-indexed plateaus for the bootstrap
    regularity ladder.
    """
    ops = assemble(model, kernel)
    lam = model.lambdas
    rng = np.random.default_rng(seed)
    # (iii): definitional identity on random pairs
    gap = 0.0
    for _ in range(20):
        v = rng.standard_normal(lam.size)
        lhs = math.sqrt(float(np.sum(lam ** (-1.0) * (lam * v) ** 2)))
        rhs = math.sqrt(float(np.sum(lam * v ** 2)))
        gap = max(gap, abs(lhs - rhs))

    # all radii x members step as the rows of one batch
    z0s = [draw_random_state(model, kernel, radius, "H1",
                             np.random.default_rng([seed, int(radius * 1000), e]))
           for radius in radii for e in range(ensemble)]
    trajs = integrate_ensemble(z0s, ops, kernel, "history", dt, t_end)
    plateau_h1 = {}
    accel_sup = {}
    sigma_plateaus = {}
    for i, radius in enumerate(radii):
        h1_tails = []
        acc_vals = []
        for e, traj in enumerate(trajs[i * ensemble:(i + 1) * ensemble]):
            ts = traj.times[::max(1, traj.n_steps // 60)]
            # member 0 at the largest radius also climbs the sigma ladder
            probe_sigma = radius == max(radii) and e == 0
            sig_vals = {sigma: [] for sigma in (0.0, 1.0 / 3.0, 1.0)}
            for t in ts[ts >= (2.0 / 3.0) * t_end]:
                z = traj.state_at(t, kernel)
                h1_tails.append(norm_H(z, 1))
                if probe_sigma:
                    for sigma, col in sig_vals.items():
                        col.append(norm_H(z, sigma))
            idxs = np.arange(0, traj.n_steps + 1, max(1, traj.n_steps // 400))
            u = traj.u_snaps[idxs]
            acc = ops.accel(u, traj.force_snaps[idxs], f_modal(model, u))
            acc_vals.append(float(np.max(np.sqrt(np.sum(acc ** 2, axis=1)))))
            if probe_sigma:
                sigma_plateaus = {sigma: float(np.median(col))
                                  for sigma, col in sig_vals.items()}
        plateau_h1[radius] = float(np.median(h1_tails))
        accel_sup[radius] = max(acc_vals)
    vals = list(plateau_h1.values())
    spread = max(vals) / min(vals) - 1.0 if min(vals) > 0 else math.inf
    return HypothesisProbeReport(tuple(radii), plateau_h1, accel_sup, gap,
                                 sigma_plateaus, spread)


# ---------------------------------------------------------------------------
# model configuration files
# ---------------------------------------------------------------------------

def load_g_csv(path, J):
    """Forcing from a text table with `mode, coeff` columns and finite cells;
    unlisted modes are 0.  A header without both columns, or a mode that is
    not an integer in 1..J listed once, raises a ValueError naming model
    field 'g', the file and the line."""
    names, lines, rows = _read_table(path, "model field 'g'", finite=True)
    if "mode" not in names or "coeff" not in names:
        raise ValueError("model field 'g': the header row of %s must name the columns "
                         "mode and coeff, not %r" % (path, names))
    g, seen = np.zeros(J), set()
    for i, row in zip(lines, rows):
        m = row[names.index("mode")]
        if not (1 <= m <= J and m == int(m)) or m in seen:
            raise ValueError("model field 'g': line %d of %s must hold a mode that is an "
                             "integer in 1..%d listed once, not %r" % (i, path, J, float(m)))
        seen.add(m)
        g[int(m) - 1] = row[names.index("coeff")]
    return g


def _read_eigenfile(path, eig_path):
    """The eigenvalues in `domain.eigenfile` of the model file `path`, a text
    table of whitespace-separated cells without a header; a file that holds
    none raises a ValueError naming the field and the file."""
    where = "model field 'domain.eigenfile' (%s) in %s" % (eig_path, path)
    _, _, rows = _read_table(path_beside(path, eig_path, "model field 'domain.eigenfile'"),
                             where, header=False, sep=None)
    if not rows:
        raise ValueError("%s: the file holds no eigenvalues" % where)
    return np.concatenate(rows)


def load_model_file(path):
    """Model config: {J, domain, f, g, kernel}; returns (model, kernel_path).

    Its data files are read relative to it; the kernel path is returned as
    written.  A malformed J, domain, f or g raises a ValueError naming the
    field, and one that `make_model` refuses, naming the file.
    """
    spec = _read_json_object(path)
    J = spec.get("J")
    _check_modes(J)
    domain = spec.get("domain", "interval_pi")
    lambdas = None
    if isinstance(domain, dict) and "eigenfile" in domain:
        lambdas = _read_eigenfile(path, domain["eigenfile"])
    elif domain != "interval_pi":
        raise ValueError("model field 'domain' must be \"interval_pi\" or {\"eigenfile\": "
                         "path}, not %r in %s" % (domain, path))
    f_spec = spec.get("f", "cubic")
    beta = 0.0
    if isinstance(f_spec, dict) and list(f_spec) == ["cubic_minus_linear"] \
            and finite_number(f_spec["cubic_minus_linear"]):
        f_spec, beta = "cubic_minus_linear", f_spec["cubic_minus_linear"]
    elif f_spec not in F_SELECTORS:
        raise ValueError("model field 'f' must be one of %s or {\"cubic_minus_linear\": "
                         "beta} with beta a finite number, not %r in %s"
                         % (", ".join(map(repr, F_SELECTORS)), f_spec, path))
    g = spec.get("g")
    if isinstance(g, str):
        g = load_g_csv(path_beside(path, g, "model field 'g'"), J)
    elif g is not None and not (isinstance(g, list) and len(g) == J
                                and all(map(finite_number, g))):
        raise ValueError("model field 'g' must be a list of J = %d finite numbers or "
                         "the path of a mode,coeff CSV, not %r in %s" % (J, g, path))
    try:
        model = make_model(J, f=f_spec, beta=beta, g=g, lambdas=lambdas)
    except ValueError as exc:
        raise ValueError("model file %s: %s" % (path, exc)) from None
    return model, spec.get("kernel")
