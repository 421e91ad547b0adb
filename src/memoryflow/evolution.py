"""Time integration of the coupled memory systems.

The (u, v) pair advances by a classical four-stage Runge-Kutta step with the
memory force interpolated linearly in time between its values at the step
endpoints; the endpoint at t+dt comes from a predictor pass.  The memory
variable itself is never stepped: it is reconstructed on demand from the
stored (u, v) snapshots through the explicit representation formulas, so
the history transport is exact and free of CFL constraints.  The coupled
scheme is second order overall.

A run fills (E, n+1, J) arrays of u, v and the memory force F, which a
trajectory keeps; only the stepwise path also stores the memory source X
that F reads (lambdas*u for history, lambdas*v for state).  A run whose
arrays would hold more than MAX_RUN_VALUES values each is refused before
any is allocated.

An ensemble is a batch axis: `integrate_ensemble` steps all members together
as rows of member-major arrays, and each row is bitwise equal to the same
member integrated alone.

The scheme is written once, in `_rk4`; the corrector reuses the
predictor's f at stages 1-3, so a step evaluates f five times, not eight.
`_stage_coefficients` runs it once per run on unit rows, and every run
steps on its per-mode coefficients: `_integrate_steps` in two force calls,
five f calls and one `np.vecdot` per stage, with its stores and blow-up
guard once per BLOCK steps, the block path on matrices `_step_map` composes
from them.  Results match the textbook predictor-corrector scheme to
roundoff (the tests hold them to 1e-12 of the largest value).

Linear runs (f = None) with one (J,) forcing, whose window sum is
recursive, as it is for every kernel that states its decay rate (the
exponential family), and whose window spans more than BLOCK steps, advance
up to 4 BLOCK steps per Python pass (`_integrate_blocks`): a step is then a
fixed small matrix per mode, one stacked matmul, and the stores and the
blow-up guard run once per pass.  Every other run, (E, J) forcing rows
included, steps one at a time.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spaces import (
    ExtendedVector,
    HistoryField,
    ModalVector,
    StateField,
    big_l_map,
    norm_H,
    save_rows,
)

BLOWUP_GUARD = 1e8
MAX_RUN_VALUES = 10 ** 8   # a run array's budget, (n_steps+1) E J values: 800 MB
BLOCK = 32        # steps per far-field window product, and per stepwise store and guard


class BlowUpError(RuntimeError):
    def __init__(self, t):
        super().__init__("blow-up detected at t=%.6g" % t)
        self.t = t


@dataclass
class ModelOperators:
    """The model u' = v, v' = -lambdas*u - F - f(u) + g as data.

    lambdas are the eigenvalues of the operator A behind the memory: its
    source is A v = lambdas*v, with primitive lambdas*u, and F is the memory
    force.  f maps (E, J) rows of u to (E, J) rows of f(u); f = None means
    no nonlinearity.  g is a (J,) forcing, or (E, J) rows of it, one per
    member; runs with forcing rows advance one step at a time.
    """
    lambdas: np.ndarray
    g: np.ndarray
    f: object = None

    def accel(self, u, F, fu=None):
        """-lambdas*u - F - fu + g, given fu = f(u), or None when f is."""
        a = -self.lambdas * u - F
        if fu is not None:
            a = a - fu
        return a + self.g


@dataclass
class Trajectory:
    """Uniformly spaced snapshots of u, v and the memory force."""
    times: np.ndarray
    u_snaps: np.ndarray            # (n+1, J)
    v_snaps: np.ndarray
    force_snaps: np.ndarray        # memory force as used at each snapshot
    initial_memory: object
    window: float                  # the kernel's s_max, where the memory window ends
    framework: str                 # "history" | "state"
    dt: float
    kernel_id: str
    lambdas: np.ndarray

    @property
    def n_steps(self):
        return self.times.size - 1

    def index_of(self, t):
        idx = int(round(t / self.dt))
        if idx < 0 or idx > self.n_steps or abs(idx * self.dt - t) > 1e-9 * max(1.0, t):
            raise ValueError("t=%g is off the time grid" % t)
        return idx

    def state_at(self, t, kernel):
        """(u, v, memory) at the snapshot time t.  A history state's memory
        holds eta^t as the blocks `_eta_field` builds and forms its values
        only when they are read."""
        idx = self.index_of(t)
        if self.framework == "history":
            mem = _eta_field(self, idx, t, kernel)
        else:
            mem = reconstruct_xi(self, t, kernel)
        return ExtendedVector(ModalVector(self.u_snaps[idx].copy(), self.lambdas),
                              ModalVector(self.v_snaps[idx].copy(), self.lambdas),
                              mem)

    @cached_property
    def _eta0_live(self):
        """Whether the initial memory is a history field with a nonzero value."""
        eta0 = self.initial_memory
        return isinstance(eta0, HistoryField) and bool(np.any(eta0.values))


def _interp_many(arr, xs, scale=1.0):
    """Vectorized row interpolation at fractional indices (m,) -> (m, J), of
    the rows scale*arr, each scaled before it is weighted."""
    n = arr.shape[0] - 1
    xs = np.clip(xs, 0.0, float(n))
    i = np.minimum(xs.astype(int), max(n - 1, 0))
    frac = (xs - i)[:, None]
    return (1.0 - frac) * (scale * arr[i]) + frac * (scale * arr[np.minimum(i + 1, n)])


def _interp_columns(x, xp, fp):
    """np.interp(x, xp, fp[:, j], left=fp[0, j], right=0.0) for every column
    j of fp, bitwise, with each point's knot and weight found once.

    As in numpy, a point below xp[0] takes the first row, one above xp[-1]
    takes 0.0, one on a knot takes that knot's row, and any other takes
    slope (x - xp[j]) + fp[j] with slope = (fp[j+1] - fp[j]) / (xp[j+1] -
    xp[j]) on its interval [xp[j], xp[j+1]).
    """
    j = np.searchsorted(xp, x, side="right") - 1
    out = np.zeros((x.size, fp.shape[1]))
    out[j < 0] = fp[0]
    on = (j >= 0) & (xp[np.maximum(j, 0)] == x)
    out[on] = fp[j[on]]
    mid = (j >= 0) & (j < xp.size - 1) & ~on
    jm = j[mid]
    slope = (fp[jm + 1] - fp[jm]) / (xp[jm + 1] - xp[jm])[:, None]
    out[mid] = slope * (x[mid] - xp[jm])[:, None] + fp[jm]
    return out


class MemoryForce:
    """Memory-force evaluation at snapshot times from stored arrays.

    History framework: F(t) = int_0^t mu(s) [P(t) - P(t-s)] ds
                              + k(t) [P(t) - P(0)] + int mu(t+s) eta0(s) ds,
    with P the primitive of the memory source.  State framework:
    F(t) = int_t^inf xi0 + int_0^t k(s) a(t-s) ds.  Convolutions use the
    trapezoid rule on the snapshot spacing over the window s <= s_max, the
    kernel's support cutoff: W = s_max/dt nodes, fewer while n_max is less.

    The part of the force at step n that reads only rows < n (the window
    sum and the initial-memory term) is computed once per n: rows < n are
    final the first time force(n) is asked for, as F1 of the corrector of
    step n-1, and the second call, as F0 of step n, reuses it.

    When the kernel states its decay rate, the window weights are geometric
    with ratio q = exp(-rate dt) on nodes 1..W-1, which lie below s_max, so
    k is geometric there too, and the window sum is a one-term recursion,
    O(J) per step (see `_carry`); other kernels take blocked Toeplitz
    products, O(W J) per step (see `_window`).  Both read the history
    framework's P as differences, so a constant P gives exactly 0.0.
    Either way force(n) may be asked for at any n, in any order.
    """

    def __init__(self, kernel, framework, dt, n_max):
        self.kernel = kernel
        self.framework = framework
        self.dt = dt
        w_full = max(1, int(round(kernel.s_max / dt)))
        self.w_nodes = W = min(n_max, w_full)
        s = np.arange(W + 1) * dt           # every reader stays in the window
        self.k_dt = np.asarray(kernel.k(s), dtype=float)
        if framework == "history":
            self.mu_dt = w = mu = np.asarray(kernel.mu(s), dtype=float)
        else:
            w = self.k_dt
        self._w = w
        self._n = self._n0 = self._h = None
        self._q = q = None if kernel.rate is None else math.exp(-kernel.rate * dt)
        if q is not None:
            # the recursion spans the whole window, nodes 1..w_full-1, past
            # n_max if need be, so a longer run takes the same steps (prefix
            # property)
            self._top = top = w_full - 1
            self._c = c = dt * w[1]
            self._leave = c * q ** top
            # trapezoid end correction -w_m/2, or +w_W/2 at the full window,
            # where the recursion stops at node W-1; node W's weight comes
            # from the table (k is 0.0 there when s_max is a multiple of dt)
            self._edge = -0.5 * dt * w[:W + 1]
            if W == w_full:
                self._edge[W] *= -1.0
            if framework == "history":
                self._edge += self.k_dt[:W + 1]
                # gain[M] = c * sum_{i=1..M} q^(i-1), the weight of P(t) - P(t-dt)
                self._gain = c * np.concatenate(
                    [[0.0], np.cumsum(q ** np.arange(min(top, W)))])
            return
        if framework == "history":
            # dt-free trapezoid weight of P(t) itself, sum_{i=1..m} mu_i - mu_m/2
            self._wsum = np.cumsum(mu) - mu[0] - 0.5 * mu
            self._wsum[0] = 0.0
        self._w_rev = w[::-1].copy()      # contiguous for BLAS dots
        # T[b, c] = w[W + b - c], zero beyond the window (W + b - c > W):
        # T[b, W-k:] against rows n0-k..n0-1 is the part of step n0+b's
        # window sum that comes from before n0, for a whole block at once
        pad = np.concatenate([np.zeros(BLOCK - 1), self._w_rev[-W - 1:-1]])
        self._T = sliding_window_view(pad, W)[::-1].copy()

    def set_initial_memory(self, mems):
        """Initial memory per member; only nonzero rows pay for its term."""
        self._rows = (len(mems), mems[0].values.shape[1])
        self._mem0 = [(e, mem) for e, mem in enumerate(mems) if np.any(mem.values)]

    def initial_terms(self, ns):
        """The initial-memory part of the force at steps ns, as (len(ns), E, J).

        History: int mu(t + s) eta0(s) ds while t = n dt is inside the
        window.  State: int_t^inf xi0, with each cell weighted by its share
        past t, which is zero on every cell once t is past the support.
        """
        t = ns[:, None] * self.dt
        out = np.zeros((ns.size,) + self._rows)
        for e, mem in self._mem0:
            live = ns <= self.w_nodes if self.framework == "history" \
                else t[:, 0] < mem.nodes[-1] + 0.5 * mem.ds
            if not live.any():
                continue
            # one product over all of ns, so a row's bits do not depend on
            # which other rows are live
            wts = np.asarray(self.kernel.mu(t + mem.nodes), dtype=float) \
                if self.framework == "history" \
                else np.clip((mem.nodes + 0.5 * mem.ds - t) / mem.ds, 0.0, 1.0)
            out[live, e] = ((wts @ mem.values) * mem.ds)[live]
        return out

    def _window(self, n, X, x0=0.0):
        """sum_{i=1..m} w_i Y[:, n-i] - w_m Y[:, n-m] / 2 with m = min(n, W)
        and Y = X - x0, for x0 the (E, 1, J) rows X[:, :1] or 0.0.

        Steps come in blocks of BLOCK from n0 = 0: the rows before the
        block's start n0 enter through one product with T, made when the
        block is first reached, and each step adds its rows n0..n-1.
        """
        W = self.w_nodes
        m = min(n, W)
        r = n % BLOCK
        n0 = n - r
        if n0 != self._n0:
            k = min(n0, W)
            self._far = np.matmul(self._T[:, W - k:], X[:, n0 - k:n0] - x0)
            self._n0 = n0
        out = self._far[:, r].copy()
        lo = max(n0, n - m)
        if lo < n:
            L = self._w_rev.size
            out += np.matmul(self._w_rev[L - 1 - (n - lo):L - 1], X[:, lo:n] - x0)
        if m > 0:
            out -= 0.5 * self._w[m] * (X[:, n - m:n - m + 1] - x0)[:, 0]
        return out

    def _carry(self, n, X):
        """The rows-before-n part of the recursive window sum, times c = dt w_1.

        With q the weights' ratio, M = min(n, W-1) and Q_M = sum_{i=1..M}
        q^(i-1), the state framework carries H(n) = sum_{i=1..M} q^(i-1)
        X[:, n-i].  The history framework carries R(n) = D(n) - Q_M (X[:, n]
        - X[:, n-1]), with D(n) = sum_{i=1..M} q^(i-1) (X[:, n] - X[:, n-i]);
        it reads differences of X only, so a constant X gives exactly 0.0.
        Each step multiplies by q, adds the newest row and drops the row that
        leaves the window.  An n below the last one restarts from 0.
        """
        if self._h is None or n < self._k:
            self._k, self._h = 0, np.zeros((X.shape[0], X.shape[2]))
        q, leave, top = self._q, self._leave, self._top
        h = self._h
        for k in range(self._k, n):
            if self.framework == "history":
                if k > 0:
                    h = h + self._gain[min(k, top)] * (X[:, k] - X[:, k - 1])
                h = q * h
                if k >= top:
                    h -= leave * (X[:, k] - X[:, k - top])
            else:
                h = q * h + self._c * X[:, k]
                if k >= top:
                    h -= leave * X[:, k - top]
        self._k, self._h = n, h
        return h

    def history_force(self, n, P):
        """Force at t = n*dt per member given primitive snapshots P[:, 0..n]."""
        m = min(n, self.w_nodes)
        dt = self.dt
        if n != self._n:
            past = self._carry(n, P).copy() if self._q is not None \
                else -dt * self._window(n, P, P[:, :1])
            if self._mem0:
                past += self.initial_terms(np.array([n]))[0]
            self._n, self._past = n, past
        if self._q is None:
            out = (dt * self._wsum[m]) * (P[:, n] - P[:, 0]) + self._past
            out += self.k_dt[m] * (P[:, n] - P[:, n - m])
            return out
        if n == 0:
            return self._past.copy()
        out = self._past + self._gain[min(n, self._top)] * (P[:, n] - P[:, n - 1])
        out += self._edge[m] * (P[:, n] - P[:, n - m])
        return out

    def state_force(self, n, a):
        """Force at t = n*dt per member given memory-source snapshots a[:, 0..n]."""
        m = min(n, self.w_nodes)
        dt = self.dt
        if n != self._n:
            if self._q is None:
                past = dt * self._window(n, a)
            else:
                past = self._carry(n, a).copy()
                if m > 0:
                    past += self._edge[m] * a[:, n - m]
            if self._mem0:
                past += self.initial_terms(np.array([n]))[0]
            self._n, self._past = n, past
        if m == 0:
            return self._past.copy()
        return self._past + (0.5 * dt * self.k_dt[0]) * a[:, n]

    def force(self, n, X):
        if self.framework == "history":
            return self.history_force(n, X)
        return self.state_force(n, X)


def _rk4(ops, u, v, dt, F0, F1, shared=None):
    """One RK4 pass for w = (u, v), w' = (v, a), with the memory force linear
    in time across the step; returns w + dt/6 (k1 + 2 k2 + 2 k3 + k4) and f
    at stages 1-3.  Stage 1 and the u-stages 2-3 read w and F0 only, so they
    are the same in the predictor pass (F1 = F0) and the corrector pass,
    which takes f there from the predictor's `shared` and evaluates f once,
    at stage 4.
    """
    f = ops.f if shared is None else (lambda x, fs=iter(shared): next(fs))
    h, Fm = 0.5 * dt, 0.5 * (F0 + F1)
    f1 = f(u)
    a1 = ops.accel(u, F0, f1)
    u2, v2 = u + h * v, v + h * a1
    f2 = f(u2)
    a2 = ops.accel(u2, Fm, f2)
    u3, v3 = u + h * v2, v + h * a2
    f3 = f(u3)
    a3 = ops.accel(u3, Fm, f3)
    u4, v4 = u + dt * v3, v + dt * a3
    a4 = ops.accel(u4, F1, ops.f(u4))
    return (u + (dt / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4),
            v + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)), (f1, f2, f3)


_PAIRS = np.triu_indices(5, 1)     # (i, j) of the monomials s_i s_j, i < j
# monomial k of the 16 (1, s_i, s_i s_j for (i, j) in _PAIRS) is the product
# of columns _FACTORS[:, k] of a scalar row (1, s_0, .., s_4)
_FACTORS = np.concatenate([[np.zeros(6, dtype=int), np.arange(6)], 1 + np.array(_PAIRS)],
                          axis=1)


def _scalars(mf, ns, n_steps):
    """Rows (1, s) of `_step_map`'s scalars s at steps ns of a run of n_steps;
    s past n_steps, and a[n+1] and b[n+1] at n_steps, which its F column
    does not read, repeat those at n_steps."""
    n = np.minimum(ns, n_steps)
    nn = np.stack([n, np.minimum(n + 1, n_steps)])
    a = mf._gain[np.minimum(nn, mf._top)] if mf.framework == "history" \
        else np.where(nn > 0, 0.5 * mf.dt * mf.k_dt[0], 0.0)
    b = np.where(nn > 0, mf._edge[np.minimum(nn, mf.w_nodes)], 0.0)
    return np.column_stack([np.ones(len(n)), a[0], b[0], a[1], b[1],
                            np.where(n >= mf._top, mf._leave, 0.0)])


def _monomials(s, cols, out=None):
    """The monomials cols of the 16 on scalar rows s = (1, s_0, .., s_4)."""
    i, j = _FACTORS[:, cols]
    return np.multiply(s[:, i], s[:, j], out=out)


def _step_map(mf, lam, g):
    """One predictor-corrector step of an f = None run as per-mode matrices.

    The step is the row z = (u, v, p, h, F, x0, x1, xt, m0, m1, 1) at n
    times an (11, 5) matrix per mode, which gives (u, v, p, h) at n+1 and
    F = F(n).  Here p = X[n-1] (read in the history framework only) and h
    is the carry of `MemoryForce._carry` of mf, with X the run's memory
    source; the F slot is not read.  The inputs x0 = X[n-m], x1 =
    X[n+1-m1], xt = X[n-top] and the initial-memory terms m0, m1 at n and
    n+1 are final before n.  The matrix depends on n only through the
    scalars s = (a[n], b[n], a[n+1], b[n+1], leave [n >= top]), where (a, b)
    is (gain, edge) in the history framework and (dt k(0)/2, edge) in the
    state framework, both 0 at n = 0.

    This returns its (16, J, 11, 5) coefficients on the `_monomials` of s,
    with g, which must be one (J,) forcing, on the constant row.  Quantities
    are carried as (16, J, 11) coefficients, so times s_k shifts rows, and a
    pass applies the (u, v) columns of `_stage_coefficients` to the slots u,
    v, F0, g and F1.  A scalar multiplies only terms of degree <= 1 that
    lack it, so no square arises.
    """
    (i, j), J = _PAIRS, lam.size
    # to[k]: the rows of s_k times the rows (1, s_0, .., s_4); the row s_k
    # of what it multiplies is 0.0 and goes to row 0, 0.0 after a shift
    to = np.column_stack([1 + np.arange(5), np.zeros((5, 5), dtype=int)])
    to[i, 1 + j] = to[j, 1 + i] = 6 + np.arange(i.size)

    def times(k, x):
        out = np.zeros_like(x)
        out[to[k]] = x[:6]
        return out

    def unit(k, c=1.0):
        x = np.zeros((16, J, 11))
        x[0, :, k] = c
        return x

    # c[:, k] times the quantity in slot k of `_stage_coefficients`
    rk4_pass = lambda c, *xs: sum(c[:, k, None] * x for k, x in zip((0, 1, 2, 3, 8), xs))

    u, v, p, h, _, x0, x1, xt, m0, m1 = map(unit, range(10))
    one = unit(10, g)
    _, _, _, pred, _, corr = _stage_coefficients(lam, mf.dt)
    lam = lam[:, None]                  # per mode, on the (16, J, 11) rows
    # Xn = X[n], and Xp is X[n+1] of the predictor
    if mf.framework == "history":
        Xn = lam * u
        F0 = h + m0 + times(0, Xn - p) + times(1, Xn - x0)
        Xp = lam * rk4_pass(pred[..., 0], u, v, F0, one)
        h1 = mf._q * (h + times(0, Xn - p)) - times(4, Xn - xt)
        F1 = h1 + m1 + times(2, Xp - Xn) + times(3, Xp - x1)
    else:
        Xn = lam * v
        F0 = h + m0 + times(0, Xn) + times(1, x0)
        Xp = lam * rk4_pass(pred[..., 1], u, v, F0, one)
        h1 = mf._q * h + mf._c * Xn - times(4, xt)
        F1 = h1 + m1 + times(2, Xp) + times(3, x1)
    un, vn = (rk4_pass(corr[..., c], u, v, F0, one, F1) for c in (0, 1))
    return np.stack([un, vn, Xn, h1, F0], axis=-1)


def _store(U, V, F, n0, uv, forces, dt):
    """Store a pass from step n0: uv, (L, E, J, 2), as (u, v) at steps
    n0+1..n0+L and forces, (K, E, J), as F at steps n0..n0+K-1; if max |u|
    or max |v| left the guard (NaN fails it), raise BlowUpError at the end
    of the first step that did."""
    new = slice(n0 + 1, n0 + 1 + len(uv))
    U[:, new] = uv[..., 0].swapaxes(0, 1)
    V[:, new] = uv[..., 1].swapaxes(0, 1)
    F[:, n0:n0 + len(forces)] = forces.swapaxes(0, 1)
    if not all(np.abs(A[:, new]).max(initial=0.0) <= BLOWUP_GUARD for A in (U, V)):
        ok = np.maximum(np.abs(U[:, new]), np.abs(V[:, new])).max(axis=(0, 2)) <= BLOWUP_GUARD
        raise BlowUpError((n0 + int(np.argmin(ok))) * dt + dt)


def _block_path(ops, mf):
    """Whether a run takes `_integrate_blocks`: f = None, one (J,) forcing and
    a recursive window of top >= BLOCK nodes, fixed by the whole window, not
    by the run length."""
    return (ops.f is None and np.ndim(ops.g) == 1 and mf._q is not None
            and mf._top >= BLOCK)


def _integrate_blocks(mf, ops, lam, U, V, F):
    """Fill U, V and F of an f = None run with a recursive window.

    Steps run in passes of P = min(top, 4 BLOCK) from n = 0; P depends on
    the window only, so a run to T is the prefix of a run to 2T.  The
    matrix of `_step_map` is quadratic in its five scalars, so a pass's
    matrices are one product of the live `_monomials` (whose coefficients
    are not all 0.0) with their coefficients, into one (P, J, 11, 5)
    buffer; one matrix serves every step from the first multiple of BLOCK
    past top.  A pass inside the window, past step 0 and short of top and
    n_steps, reads its scalars as slices of the gain and edge tables.  The
    inputs are slices of U or V times lambdas, rows before the pass (P <=
    top), and the lag slots hold lambda X[0] until a pass reaches past top;
    a step is one stacked matmul on views made once, and the stores and the
    blow-up guard (`_store`) run once per pass.
    """
    E, n_steps, J, top = U.shape[0], U.shape[1] - 1, lam.size, mf._top
    src = U if mf.framework == "history" else V
    P, on = min(top, 4 * BLOCK), (top // BLOCK + 1) * BLOCK
    coef = _step_map(mf, lam, ops.g).reshape(16, -1)
    # all 16 monomials: a one-row product's bits can depend on its length
    steady = (_monomials(_scalars(mf, np.array([top + 1]), n_steps), np.arange(16))
              @ coef).reshape(J, 11, 5)
    live = np.flatnonzero(coef.any(axis=1))
    coef = coef[live]
    # scalar rows (1, a[n], b[n], a[n+1], b[n+1], 0) of a pass inside the
    # window, from the rows (x[n], x[n+1]) of views of the tables of a and b
    s, inside = np.zeros((P, 6)), min(top, mf.w_nodes, n_steps)
    s[:, 0] = 1.0
    a_pairs = sliding_window_view(mf._gain, 2) if mf.framework == "history" \
        else np.broadcast_to(0.5 * mf.dt * mf.k_dt[0], (mf.w_nodes, 2))
    b_pairs = sliding_window_view(mf._edge, 2)
    mono = np.empty((P, live.size))
    M = np.empty((P, J, 11, 5))                # the step matrices of a pass
    z = np.zeros((P + 1, E, J, 1, 11))         # the rows of `_step_map`, per step
    z[0, :, :, 0, 0], z[0, :, :, 0, 1] = U[:, 0], V[:, 0]
    z[..., 10] = 1.0
    steps = [(z[l], M[l], z[l + 1, ..., :5]) for l in range(P)]
    for n0 in range(0, n_steps + 1, P):
        if n0 < on:
            if 0 < n0 and n0 + P <= inside:
                s[:, 1:4:2], s[:, 2:5:2] = a_pairs[n0:n0 + P], b_pairs[n0:n0 + P]
                rows = s
            else:
                rows = _scalars(mf, n0 + np.arange(P), n_steps)
            np.matmul(_monomials(rows, live, mono), coef, out=M.reshape(P, -1))
            if on < n0 + P:
                M[on - n0:] = steady
        elif n0 < on + P:
            M[:] = steady
        # slot 5 takes x0 = X[max(n - top - 1, 0)], 6 and 7 x1 = xt = X[max(n - top, 0)]:
        # lambda X[0] on every row until a pass reaches past top
        if n0 == 0 or n0 + P - 1 > top:
            for k, lag in ((5, top + 1), (6, top)):
                x, first = z[:P, :, :, 0, k].swapaxes(0, 1), min(max(lag - n0, 0), P)
                x[:, :first] = lam * src[:, :1]
                np.multiply(lam, src[:, n0 + first - lag:n0 + P - lag], out=x[:, first:])
            z[:P, :, :, 0, 7] = z[:P, :, :, 0, 6]
        # BLOCK + 1 rows at a time bound the (rows, nodes) weights of initial_terms
        for k in range(0, P, BLOCK) if mf._mem0 else ():
            mem = mf.initial_terms(np.arange(n0 + k, n0 + min(k + BLOCK, P) + 1))
            z[k:k + len(mem) - 1, :, :, 0, 8] = mem[:-1]
            z[k:k + len(mem) - 1, :, :, 0, 9] = mem[1:]
        L = min(P, n_steps - n0)
        # the last pass takes one more row, whose F slot is the force at
        # n_steps, from the same matrix row as at every step
        last = L + 1 if n0 + P > n_steps else L
        with np.errstate(over="ignore", invalid="ignore"):
            for zl, Ml, out in steps[:last]:
                np.matmul(zl, Ml, out=out)
            _store(U, V, F, n0, z[1:L + 1, :, :, 0, :2], z[1:last + 1, :, :, 0, 4], mf.dt)
        z[0, ..., :5] = z[L, ..., :5]


def integrate_ensemble(z0s, ops, kernel, framework, dt, t_end):
    """Advance all members of z0s together to t_end; one trajectory each.

    Members are rows of member-major (E, n+1, J) arrays of u, v and F, and
    each trajectory holds contiguous views of its rows, which are bitwise
    equal to the member integrated alone.  Every z0.memory must match the framework (history
    field or state field).  The memory window ends at the kernel's support
    cutoff s_max, which the decay certificate makes safe to 1e-10.
    """
    if framework not in ("history", "state"):
        raise ValueError("framework must be 'history' or 'state'")
    if not z0s:
        raise ValueError("need at least one ensemble member")
    want = HistoryField if framework == "history" else StateField
    if not all(isinstance(z0.memory, want) for z0 in z0s):
        raise ValueError("initial memory does not match framework %r" % framework)
    if dt <= 0 or t_end < dt:
        raise ValueError("need 0 < dt <= t_end")
    lam = np.asarray(ops.lambdas, dtype=float)
    n_steps = int(round(t_end / dt)) if math.isfinite(t_end / dt) else math.inf
    if (n_steps + 1) * len(z0s) * lam.size > MAX_RUN_VALUES:
        raise ValueError("t_end = %g over dt = %g with %d members of J = %d modes is "
                         "%.0f values per run array, more than the budget of %d"
                         % (t_end, dt, len(z0s), lam.size,
                            (n_steps + 1) * len(z0s) * lam.size, MAX_RUN_VALUES))

    U, V, F = (np.empty((len(z0s), n_steps + 1, lam.size)) for _ in range(3))
    U[:, 0] = [z0.u.coeffs for z0 in z0s]
    V[:, 0] = [z0.v.coeffs for z0 in z0s]

    mf = MemoryForce(kernel, framework, dt, n_steps)
    mf.set_initial_memory([z0.memory for z0 in z0s])
    advance = _integrate_blocks if _block_path(ops, mf) else _integrate_steps
    advance(mf, ops, lam, U, V, F)

    times = np.arange(n_steps + 1) * dt
    return [Trajectory(
        times=times, u_snaps=U[e], v_snaps=V[e], force_snaps=F[e],
        initial_memory=z0.memory.copy(), window=kernel.s_max, framework=framework,
        dt=dt, kernel_id=kernel.kernel_id, lambdas=lam)
        for e, z0 in enumerate(z0s)]


def _stage_coefficients(lam, dt):
    """(J, 10, m) coefficients on a step's slots z = (u, v, F0, g, f1, f2, f3,
    f4p, F1, f4c) of the predictor's u-stages 2-4 and (u, v), then the
    corrector's u-stage 4 and (u, v): `_rk4` on the unit rows of z, its f
    recording each argument and returning the next f slot.  They read z[:5]
    .. z[:10], slots filled earlier in the step, and are 0.0 past them."""
    u, v, F0, g, f1, f2, f3, f4p, F1, f4c = np.eye(10)[:, :, None] * np.ones(lam.size)
    args, values = [], iter([f1, f2, f3, f4p, f4c])
    ops = ModelOperators(lam, g, lambda x: args.append(x) or next(values))
    wp, shared = _rk4(ops, u, v, dt, F0, F0)
    wn, _ = _rk4(ops, u, v, dt, F0, F1, shared)
    return [np.stack(c, axis=-1).transpose(1, 0, 2)
            for c in (args[1:2], args[2:3], args[3:4], wp, args[4:], wn)]


def _integrate_steps(mf, ops, lam, U, V, F):
    """Fill U, V and F one predictor-corrector step at a time, on the slots of
    `_stage_coefficients`, filled in slot order.

    Step n fills row r = n mod BLOCK of a (BLOCK + 1, E, J, 10) slot array,
    and its corrector writes (u, v) at n+1 into row r+1, which f and the
    next step read.  Each u-stage and pass result is one `np.vecdot` of a
    slot prefix with per-mode coefficient rows (the predictor's u or v
    column only), so a batch row has the bits of its member run alone; with
    f = None the f slots stay 0.0.  The memory source X that the force reads
    is an (E, n+1, J) array of the run, written every step; the U, V and F
    stores and the blow-up guard (`_store`) run once per BLOCK steps.
    """
    E, n_steps, dt, f = U.shape[0], U.shape[1] - 1, mf.dt, ops.f
    src = 0 if mf.framework == "history" else 1
    X = np.empty_like(U)
    X[:, 0] = lam * (U, V)[src][:, 0]
    s2, s3, s4, pred, s4c, corr = _stage_coefficients(lam, dt)
    # contiguous (J, k) rows of one column; the corrector's (u, v) as (J, 2, 10)
    col = lambda c, k, i=0: np.ascontiguousarray(c[:, :k, i])
    stages = () if f is None else ((5, col(s2, 5)), (6, col(s3, 6)), (7, col(s4, 7)))
    c_pred, c4c = col(pred, 8, src), col(s4c, 9)
    c_corr = np.ascontiguousarray(corr.transpose(0, 2, 1))
    Z = np.zeros((BLOCK + 1, E, lam.size, 10))
    Z[0, ..., 0], Z[0, ..., 1], Z[..., 3] = U[:, 0], V[:, 0], ops.g
    with np.errstate(over="ignore", invalid="ignore"):
        for n0 in range(0, n_steps, BLOCK):
            L = min(BLOCK, n_steps - n0)
            for r in range(L):
                n = n0 + r
                z, x = Z[r], X[:, n + 1]
                z[..., 2] = mf.force(n, X)
                if f is not None:
                    z[..., 4] = f(z[..., 0])
                for k, c in stages:           # f at the u-stage that reads z[:k]
                    z[..., k] = f(np.vecdot(z[..., :k], c))
                np.vecdot(z[..., :8], c_pred, out=x)
                x *= lam
                z[..., 8] = mf.force(n + 1, X)
                if f is not None:
                    z[..., 9] = f(np.vecdot(z[..., :9], c4c))
                w = np.vecdot(z[..., None, :], c_corr, out=Z[r + 1, ..., :2])
                np.multiply(lam, w[..., src], out=x)
            _store(U, V, F, n0, Z[1:L + 1, ..., :2], Z[:L, ..., 2], dt)
            Z[0, ..., :2] = Z[L, ..., :2]
    F[:, n_steps] = mf.force(n_steps, X)


def integrate(z0, ops, kernel, framework, dt, t_end):
    """Advance the coupled system from z0 to t_end; a batch of one member."""
    return integrate_ensemble([z0], ops, kernel, framework, dt, t_end)[0]


# ---------------------------------------------------------------------------
# representation-formula propagators
# ---------------------------------------------------------------------------

def reconstruct_eta(traj, t, kernel):
    """History variable at time t, assembled from snapshots, as a field with
    writable values.

    eta^t(s) = P(t) - P(t-s) for s <= t (P = lambdas*u, the memory-source
    primitive, interpolated between snapshots; `_eta_past`) and the
    right-translated initial history plus P(t) - P(0) beyond (`_eta_tail`).
    Grid nodes are positive, so the interpolation reads snapshots 0..idx
    only.
    """
    return _eta_field(traj, traj.index_of(t), t, kernel).copy()


def _eta_field(traj, idx, t, kernel):
    """eta^t on the kernel grid as a field of two blocks: the rows at the
    nodes s <= t, a prefix since the grid increases, and the tail beyond,
    one row for all its nodes when the initial history is zero."""
    nodes = kernel.grid
    n_past = int(np.searchsorted(nodes, t, side="right"))
    blocks = (_eta_past(traj, idx, t, nodes[:n_past]),
              _eta_tail(traj, idx, t, nodes[n_past:]))
    return HistoryField.from_blocks(nodes, blocks, kernel.mu_grid * kernel.ds,
                                    traj.lambdas, kernel.ds)


def _eta_past(traj, idx, t, nodes):
    """eta^t at the nodes s <= t: P(t) - P(t - s), from snapshots 0..idx."""
    lam, u = traj.lambdas, traj.u_snaps[:idx + 1]
    return (lam * u[idx])[None, :] - _interp_many(u, (t - nodes) / traj.dt, lam)


def _eta_tail(traj, idx, t, nodes):
    """eta^t at the nodes s > t: the initial history at s - t plus P(t) - P(0);
    one (1, J) row for all nodes when the initial history is zero."""
    lam, u = traj.lambdas, traj.u_snaps
    d = lam * u[idx] - lam * u[0]
    if not traj._eta0_live:
        return 0.0 + d[None, :]          # a -0.0 of d is stored as 0.0
    eta0 = traj.initial_memory
    out = _interp_columns(nodes - t, eta0.nodes, eta0.values)
    out += d
    return out


def reconstruct_xi(traj, t, kernel):
    """State variable at time t: left-shifted xi0 plus the mu convolution.

    xi^t(tau) = xi0(tau + t) + int_0^t mu(tau + s) a(t - s) ds, a = lambdas*v,
    by the trapezoid rule on the snapshot spacing.  When the kernel states
    its decay rate, mu(tau + k dt) = mu(tau) q^k with q = exp(-rate dt) at
    every dt, and the integral is the kernel column mu(tau) times one modal
    vector, O((n_tau + t/dt) J); otherwise it is a blocked n_tau x (t/dt)
    matrix product.
    """
    idx = traj.index_of(t)
    if not isinstance(traj.initial_memory, StateField):
        raise ValueError("trajectory does not carry a state-type initial memory")
    xi0 = traj.initial_memory
    tau = kernel.grid
    vals = _interp_columns(tau + t, xi0.nodes, xi0.values) if np.any(xi0.values) \
        else np.zeros((tau.size, traj.lambdas.size))
    if idx > 0:
        dt = traj.dt
        a = traj.lambdas * traj.v_snaps[:idx + 1]
        w_t = np.full(idx + 1, dt)
        w_t[0] = w_t[-1] = 0.5 * dt
        a_rev = a[::-1]
        if kernel.rate is not None:
            q = math.exp(-kernel.rate * dt)
            vals += kernel.mu_grid[:, None] * ((w_t * q ** np.arange(idx + 1)) @ a_rev)
        else:
            block = max(1, int(2e6 // (idx + 1)))
            for lo in range(0, tau.size, block):
                tb = tau[lo:lo + block]
                pts = tb[:, None] + (np.arange(idx + 1) * dt)[None, :]
                muM = np.asarray(kernel.mu(pts))
                vals[lo:lo + block] += (muM * w_t[None, :]) @ a_rev
    return StateField(tau, vals, kernel.nu_grid * kernel.ds, traj.lambdas,
                      kernel.ds)


# ---------------------------------------------------------------------------
# diagnostics across the two frameworks
# ---------------------------------------------------------------------------

def sample_times(t_end, dt, n_samples):
    ts = np.linspace(0.0, t_end, n_samples + 1)[1:]
    return np.round(ts / dt) * dt


def intertwine_residual(z0, ops, kernel, t_end, dt, *, n_samples=8):
    """Max over sample times of the state-space gap between the two routes.

    Runs the history semigroup on z0 and the state semigroup on its bridge
    image, then compares bridging-after-evolving with evolving-after-bridging
    in the extended state norm.
    """
    traj_h = integrate(z0, ops, kernel, "history", dt, t_end)
    traj_s = integrate(big_l_map(z0, kernel), ops, kernel, "state", dt, t_end)
    worst = 0.0
    for t in sample_times(t_end, dt, n_samples):
        gap = big_l_map(traj_h.state_at(t, kernel), kernel) - traj_s.state_at(t, kernel)
        worst = max(worst, norm_H(gap, 0))
    return worst


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_trajectory_csv(traj, path):
    J = traj.lambdas.size
    cols = ["time"] + ["u_%d" % (j + 1) for j in range(J)] \
        + ["v_%d" % (j + 1) for j in range(J)]
    save_rows(path, ",".join(cols), np.column_stack([traj.times, traj.u_snaps,
                                                     traj.v_snaps]))


def trajectory_metadata(traj, extra=None):
    meta = {
        "kernel": traj.kernel_id,
        "dt": traj.dt,
        "window": traj.window,
        "framework": traj.framework,
        "n_modes": int(traj.lambdas.size),
        "lambdas": [float(l) for l in traj.lambdas],
    }
    if extra:
        meta.update(extra)
    return meta
