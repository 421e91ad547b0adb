"""Shared helpers for the test suite, and oracles the package does not need:
quantities from the paper's proofs that the tests evaluate along runs."""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from memoryflow.attractors import PointCloud, hausdorff_semidist
from memoryflow.evolution import integrate_ensemble, sample_times
from memoryflow.kernels import MemoryKernel
from memoryflow.spaces import GRID_EQ_TOL, ExtendedVector, HistoryField, ModalVector, norm_H
from memoryflow.viscoelastic import energy_sigma, phi_functional


def random_smooth_history(kernel, lambdas, rng, n_terms=3):
    """Smooth random field: a few decaying polynomial-exponential profiles."""
    eta = HistoryField.zeros(kernel, lambdas)
    s = eta.nodes
    for j in range(lambdas.size):
        prof = np.zeros_like(s)
        for p in range(n_terms):
            a = rng.normal()
            b = rng.uniform(0.2, 1.0)
            prof += a * s ** p * np.exp(-b * s) / math.factorial(p)
        eta.values[:, j] = prof
    return eta


def random_extended(kernel, lambdas, rng):
    u = ModalVector(rng.normal(size=lambdas.size) / lambdas, lambdas)
    v = ModalVector(rng.normal(size=lambdas.size) / lambdas, lambdas)
    return ExtendedVector(u, v, random_smooth_history(kernel, lambdas, rng))


def direct_history_force(mf, n, P):
    # the trapezoid sum over the whole window, evaluated from scratch
    m = min(n, mf.w_nodes)
    dt, mu = mf.dt, mf.mu_dt
    conv = np.zeros_like(P[:, 0])
    for i in range(1, m + 1):
        wt = 0.5 * mu[i] if i == m else mu[i]
        conv += dt * wt * (P[:, n] - P[:, n - i])
    return conv + mf.k_dt[m] * (P[:, n] - P[:, n - m])


def direct_state_force(mf, n, a):
    m = min(n, mf.w_nodes)
    dt, k = mf.dt, mf.k_dt
    conv = np.zeros_like(a[:, 0])
    for i in range(m + 1):
        wt = 0.5 * k[i] if i in (0, m) else k[i]
        conv += dt * wt * a[:, n - i]
    return conv if m > 0 else np.zeros_like(a[:, 0])


def record_kernel_calls(kernel, monkeypatch):
    """Wrap kernel.mu and kernel.mu_prime so that each records the shape of
    every argument it is called on; returns {"mu": [...], "mu_prime": [...]}."""
    calls = {"mu": [], "mu_prime": []}
    for name, shapes in calls.items():
        f = getattr(kernel, name)
        monkeypatch.setattr(kernel, name,
                            lambda s, f=f, shapes=shapes: shapes.append(np.shape(s)) or f(s))
    return calls


# -- kernels ---------------------------------------------------------------------

@st.composite
def piece_tables(draw):
    """An admissible kernel of 1-4 pieces, normalized to unit first moment.

    Each piece is geometric or linear (sometimes flat, and a last one
    sometimes falling to 0), and each break is continuous or steps down; a
    geometric last piece may reach infinity.  phi = log mu + delta*s then
    rises only on the linear pieces, by at most delta times their width, so
    delta = the smallest geometric rate (1 with none) and theta = e^(delta L),
    for L the linear pieces' total width, certify it.
    """
    n = draw(st.integers(1, 4))
    h = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n)))
    geo = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a = np.concatenate([[0.0], np.cumsum(h[:-1])])
    c, r, beta, jumps = np.empty(n), np.zeros(n), np.zeros(n), []
    level = 1.0
    for i in range(n):
        c[i] = level
        if geo[i]:
            r[i] = draw(st.floats(0.2, 3.0))
            level *= math.exp(-r[i] * h[i])
        else:
            q = draw(st.just(1.0) | st.floats(0.0 if i == n - 1 else 0.05, 1.0))
            beta[i] = (q - 1.0) * level / h[i]
            level *= q
        drop = draw(st.just(0.0) | st.floats(0.05, 0.9)) if i < n - 1 else 0.0
        if drop > 0:
            jumps.append((a[i + 1], level * drop))
            level *= 1.0 - drop
    end = math.inf if geo[-1] and draw(st.booleans()) else a[-1] + h[-1]
    delta = min((r[i] for i in range(n) if geo[i]), default=1.0)
    theta = math.exp(delta * sum(h[i] for i in range(n) if not geo[i])) * (1 + 1e-9)
    return MemoryKernel(a, c, r, beta, end=end, jumps=jumps, theta=theta,
                        delta_decay=delta, kernel_id="piece_table")


def oracle_points(kernel, n=300):
    """Points for the grid oracles: n even ones up to 5 past the last break
    (or to the end), each break, and a point just short of each piece's end."""
    stop = min(kernel.end, kernel.a[-1] + 5.0)
    ends = np.append(kernel.a[1:], stop)
    near = ends - 1e-9 * (ends - kernel.a)
    return np.unique(np.concatenate([np.linspace(0.0, stop, n), kernel.a, near]))


def nec_pair_scan(kernel, theta, delta, points):
    """Worst mu(x)*e^(delta (x - s))/(theta mu(s)) over the pairs s <= x of
    `points` with mu(s) > 0: the grid scan the exact certificate replaced."""
    mu = kernel.mu(points)
    s, mu_s = points[mu > 0], mu[mu > 0]
    t = points[None, :] - s[:, None]
    ratio = mu[None, :] * np.exp(delta * np.maximum(t, 0.0)) / (theta * mu_s[:, None])
    return float(np.max(np.where(t >= 0, ratio, 0.0), initial=0.0))


def dafermos_scan(kernel, delta, points):
    """Whether mu' + delta*mu <= 0 at every point, to roundoff."""
    mu, mup = kernel.mu(points), kernel.mu_prime(points)
    return bool(np.all(mup + delta * mu <= 1e-12 * (np.abs(mup) + delta * mu)))


def flat_mass_scan(kernel):
    """Grid midpoint sum of mu over the nodes where mu' = 0 and mu > 0, over k(0)."""
    flat = (kernel.mu_prime_grid == 0) & (kernel.mu_grid > 0)
    return float(np.sum(kernel.mu_grid[flat]) * kernel.ds / kernel.mass)


# -- history fields --------------------------------------------------------------

def history_from_profile(kernel, lambdas, profile):
    """Sample profile(s) -> (J,) row (or scalar for J=1) on the grid."""
    out = HistoryField.zeros(kernel, lambdas)
    for i, s in enumerate(out.nodes):
        out.values[i] = profile(s)
    return out


def tail_function(eta, y):
    """Weighted mass of eta beyond y.

    Quadrature over the nodes at or beyond y, with the node cell straddling
    y counted by its covered fraction, so the value is the exact integral of
    the per-cell constant extension of mu(s)*||eta(s)||_{-1}^2.
    """
    if y < 1.0:
        raise ValueError("tail function is defined for y >= 1")
    lamw = eta.lambdas ** (-1.0)
    contrib = eta.weights * (eta.values ** 2 @ lamw)
    cover = np.clip((eta.nodes + 0.5 * eta.ds - y) / eta.ds, 0.0, 1.0)
    return float(np.sum(cover * contrib))


def s_derivative(eta):
    """Centered finite-difference derivative in s, one-sided at the ends."""
    vals = np.gradient(eta.values, eta.nodes, axis=0)
    return type(eta)(eta.nodes, vals, eta.weights, eta.lambdas, eta.ds)


def h_functional(eta, eta_prime=None):
    """||eta'||_{M0}^2 plus the sup over grid nodes y >= 1 of y * tail(y).

    eta_prime defaults to the finite-difference derivative of eta; if given
    it must live on the same grid.
    """
    if eta_prime is None:
        eta_prime = s_derivative(eta)
    if eta_prime.nodes.size != eta.nodes.size or \
            np.max(np.abs(eta_prime.nodes - eta.nodes)) > GRID_EQ_TOL:
        raise ValueError("grid mismatch")
    lamw = eta.lambdas ** (-1.0)
    contrib = eta.weights * (eta.values ** 2 @ lamw)
    # tails at every node: reverse cumulative sum, half of the node's own cell
    tails = np.cumsum(contrib[::-1])[::-1] - 0.5 * contrib
    sel = eta.nodes >= 1.0
    sup_term = float(np.max(eta.nodes[sel] * tails[sel])) if np.any(sel) else 0.0
    return eta_prime.norm(0) ** 2 + sup_term


def right_translate(eta, t):
    """(R(t) eta)(s) = eta(s - t) for s > t, zero otherwise.

    Shifts by whole cells are exact; fractional shifts interpolate linearly.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return eta.copy()
    n_cells = t / eta.ds
    k = int(round(n_cells))
    vals = np.zeros_like(eta.values)
    if abs(n_cells - k) < 1e-9:
        if k < eta.nodes.size:
            vals[k:] = eta.values[:eta.nodes.size - k]
    else:
        pts = eta.nodes - t
        for j in range(eta.lambdas.size):
            vals[:, j] = np.interp(pts, eta.nodes, eta.values[:, j],
                                   left=0.0, right=0.0)
        vals[eta.nodes <= t] = 0.0
    return type(eta)(eta.nodes, vals, eta.weights, eta.lambdas, eta.ds)


# -- runs ------------------------------------------------------------------------

@dataclass
class GrowthFit:
    rate: float
    q: float
    degenerate: bool


def holder_growth_probe(z1, z2, ops, kernel, framework, t_end, dt, *,
                        n_samples=25):
    """Fit log separation of two trajectories against time.

    Reports the least-squares slope and intercept; separations below the
    floating-point floor make the probe degenerate.
    """
    traj1, traj2 = integrate_ensemble([z1, z2], ops, kernel, framework, dt, t_end)
    ts = sample_times(t_end, dt, n_samples)
    seps = np.empty(ts.size)
    for i, t in enumerate(ts):
        d = traj1.state_at(t, kernel) - traj2.state_at(t, kernel)
        seps[i] = norm_H(d, 0)
    if np.all(seps < 1e-14):
        return GrowthFit(0.0, 0.0, True)
    ok = seps > 1e-300
    coeffs = np.polyfit(ts[ok], np.log(seps[ok]), 1)
    return GrowthFit(float(coeffs[0]), float(np.exp(coeffs[1])), False)


# -- energy functionals ----------------------------------------------------------

def phi_control_ratio(z, sigma, nu_small, delta_split, model, kernel):
    """Observed constant in |Phi| <= C * ||state||^2."""
    denom = norm_H(z, sigma) ** 2
    if denom == 0.0:
        return 0.0
    return abs(phi_functional(z, sigma, nu_small, delta_split, model, kernel)) / denom


def gamma_functional(z, sigma, eps, nu_small, delta_split, model, kernel):
    """E_sigma + eps * Phi."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    e = energy_sigma(z, sigma, model)
    if eps == 0.0:
        return e
    return e + eps * phi_functional(z, sigma, nu_small, delta_split, model, kernel)


def dissipation_integral_probe(traj, eps_level):
    """sup over windows [tau, t] of int ||u_t|| dy - eps*(t - tau).

    A finite value supports the averaged-dissipation bound; zero for
    trajectories at rest.
    """
    speed = np.sqrt(np.sum(traj.v_snaps ** 2, axis=1))
    dt = traj.dt
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * dt)])
    drift = cum - eps_level * traj.times
    running_min = np.minimum.accumulate(drift)
    return float(np.max(drift - running_min))


# -- clouds ----------------------------------------------------------------------

def unflatten(x, memory_template, iota=0, memory_stride=1):
    """The extended state whose cloud point (`cloud_from_states` with the same
    iota and memory_stride) is x; the memory field takes its grid, weights
    and eigenvalues from memory_template, and is zero on thinned nodes."""
    lam = memory_template.lambdas
    J = lam.size
    u = x[:J] / lam ** ((iota + 1) / 2.0)
    v = x[J:2 * J] / lam ** (iota / 2.0)
    mem = memory_template.copy()
    st = memory_stride
    w_mem = np.sqrt(memory_template.weights[::st] * st)[:, None] \
        * (lam ** ((iota - 1) / 2.0))[None, :]
    vals = x[2 * J:].reshape(-1, J)
    mem.values[:] = 0.0
    mem.values[::st] = np.where(w_mem > 0, vals / np.where(w_mem > 0, w_mem, 1.0), 0.0)
    return ExtendedVector(ModalVector(u, lam), ModalVector(v, lam), mem)


def invariance_residual(e_cloud, stepper, t):
    """Semidistance of the advanced cloud from itself after time t.

    stepper maps a (n, d) array of flattened states to their images; zero
    residual means positive invariance at the sampling resolution.
    """
    advanced = PointCloud(stepper(e_cloud.points, t), label=e_cloud.label,
                          norm=e_cloud.norm)
    return hausdorff_semidist(advanced, e_cloud)
