"""Discrete memory and state spaces over a Dirichlet eigenbasis.

All fields store modal coefficient rows on a uniform midpoint grid.  A
history field is weighted by mu(s)*ds, a state field by nu(tau)*dtau; the
component norm at regularity index sigma in [0, 1] uses the eigenvalue
weight lambda^(sigma-1), matching position space H^(sigma+1) x H^sigma.
The extended norm `norm_H` is computed here only.
"""

import logging
import math

import numpy as np

from .kernels import _as_array

logger = logging.getLogger(__name__)

GRID_EQ_TOL = 1e-12
STATE_TAIL_DROP = 1e-12     # relative weighted mass below which tail nodes are zeroed


class ModalVector:
    """Coefficients against Dirichlet eigenfunctions with their eigenvalues."""

    __slots__ = ("coeffs", "lambdas")

    def __init__(self, coeffs, lambdas):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.lambdas = np.asarray(lambdas, dtype=float)
        if self.coeffs.shape != self.lambdas.shape:
            raise ValueError("coefficient and eigenvalue lists must match")
        if self.lambdas.size and self.lambdas[0] <= 0:
            raise ValueError("eigenvalues must be positive")

    @classmethod
    def zeros(cls, lambdas):
        lambdas = np.asarray(lambdas, dtype=float)
        return cls(np.zeros_like(lambdas), lambdas)

    def copy(self):
        return ModalVector(self.coeffs.copy(), self.lambdas)

    def __add__(self, other):
        return ModalVector(self.coeffs + other.coeffs, self.lambdas)

    def __sub__(self, other):
        return ModalVector(self.coeffs - other.coeffs, self.lambdas)

    def __repr__(self):
        return "ModalVector(J=%d)" % self.coeffs.size


class _GridField:
    """Shared storage for weighted grid functions of modal vectors.

    A field holds its (nodes, J) rows in `values`, or, when it comes from
    `from_blocks`, as `blocks`: a (m, J) block for the first m nodes, then
    one row per remaining node or one (1, J) row that holds for all of them.
    Such a field forms `values` on its first read, read-only; `copy()` and
    the linear operations return fields with ordinary writable values.
    """

    blocks = None
    _values = None

    def __init__(self, nodes, values, weights, lambdas, ds):
        self.nodes = np.asarray(nodes, dtype=float)
        self._values = np.asarray(values, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.ds = float(ds)
        if self._values.shape != (self.nodes.size, self.lambdas.size):
            raise ValueError("values must be (n_nodes, n_modes)")
        if self.weights.shape != self.nodes.shape:
            raise ValueError("one weight per node")

    @classmethod
    def from_blocks(cls, nodes, blocks, weights, lambdas, ds):
        """The field whose rows are `blocks`, (head, tail) as above; the
        arrays are taken as they are, unchecked."""
        field = cls.__new__(cls)
        field.nodes, field.blocks, field.weights, field.lambdas, field.ds = \
            nodes, blocks, weights, lambdas, float(ds)
        return field

    @property
    def values(self):
        if self._values is None:
            head, tail = self.blocks
            values = np.empty((self.nodes.size, self.lambdas.size))
            values[:len(head)] = head
            values[len(head):] = tail
            values.flags.writeable = False
            self._values = values
        return self._values

    def per_node(self, rows_fn):
        """rows_fn of the field's rows, one value per node, shape (nodes,).

        rows_fn maps a (m, J) block of rows to its (m,) values through
        `np.vecdot`, which gives a row the same bits whatever rows surround
        it.  A blocked field is reduced block by block, its one-row tail
        written across the tail's nodes, so it gives the bits of the same
        field with its values formed, at the cost of its blocks' rows.
        """
        if self.blocks is None:
            return rows_fn(self.values)
        head, tail = self.blocks
        out = np.empty(self.nodes.size)
        out[:len(head)] = rows_fn(head)
        out[len(head):] = rows_fn(tail)
        return out

    def node_norms_sq(self, sigma):
        """Per-node ||eta(s)||^2_{sigma-1}, shape (nodes,)."""
        lamw = self.lambdas ** (sigma - 1.0)
        return self.per_node(lambda rows: np.vecdot(rows ** 2, lamw))

    def norm(self, sigma=0):
        """Field norm at regularity sigma: component weight lambda^(sigma-1)."""
        return float(np.sqrt(np.sum(self.weights * self.node_norms_sq(sigma))))

    def copy(self):
        return type(self)(self.nodes, self.values.copy(), self.weights,
                          self.lambdas, self.ds)

    def _lin(self, other, a, b):
        if other.nodes.size != self.nodes.size or \
                np.max(np.abs(other.nodes - self.nodes)) > GRID_EQ_TOL:
            raise ValueError("grid mismatch")
        return type(self)(self.nodes, a * self.values + b * other.values,
                          self.weights, self.lambdas, self.ds)

    def __add__(self, other):
        return self._lin(other, 1.0, 1.0)

    def __sub__(self, other):
        return self._lin(other, 1.0, -1.0)


class HistoryField(_GridField):
    """Past-history variable eta(s) with node weights mu(s)*ds."""

    def __init__(self, nodes, values, weights, lambdas, ds):
        super().__init__(nodes, values, weights, lambdas, ds)
        s, ds = self.nodes, self.ds     # the rank-one bridge map reads s_j = s_0 + j ds
        if np.any(np.abs(s - (np.arange(s.size) + s[:1] / ds) * ds) > GRID_EQ_TOL):
            raise ValueError("history field nodes must be s_0 + j*ds")

    @classmethod
    def zeros(cls, kernel, lambdas):
        nodes = kernel.grid
        lambdas = np.asarray(lambdas, dtype=float)
        return cls(nodes, np.zeros((nodes.size, lambdas.size)),
                   kernel.mu_grid * kernel.ds, lambdas, kernel.ds)


class StateField(_GridField):
    """Minimal-state variable xi(tau) with node weights nu(tau)*dtau.

    nu = 1/mu grows without bound, so far-tail nodes whose cumulative
    weighted mass falls below STATE_TAIL_DROP of the total are zeroed.
    """

    def __init__(self, nodes, values, weights, lambdas, ds):
        super().__init__(nodes, values, weights, lambdas, ds)
        self._clamp_tail()

    def _clamp_tail(self):
        """Zero the dropped nodes in a copy, so the caller's array is kept."""
        contrib = self.weights * self.node_norms_sq(0)
        total = float(np.sum(contrib))
        if total <= 0:
            return
        tail = np.cumsum(contrib[::-1])[::-1]
        drop = tail / total < STATE_TAIL_DROP
        if np.any(drop & (np.abs(self.values).sum(axis=1) > 0)):
            dropped = float(tail[np.argmax(drop)] / total)
            if dropped > 1e-9:
                logger.warning("state field tail clamped (%.3g of weighted mass)",
                               dropped)
            self._values = self.values.copy()
            self._values[drop] = 0.0

    @classmethod
    def zeros(cls, kernel, lambdas):
        nodes = kernel.grid
        lambdas = np.asarray(lambdas, dtype=float)
        return cls(nodes, np.zeros((nodes.size, lambdas.size)),
                   kernel.nu_grid * kernel.ds, lambdas, kernel.ds)


class ExtendedVector:
    """(u, v, memory) with memory either a history or a state field."""

    __slots__ = ("u", "v", "memory")

    def __init__(self, u, v, memory):
        if u.coeffs.shape != v.coeffs.shape:
            raise ValueError("mismatched modal dimensions")
        if memory.lambdas.shape != u.lambdas.shape:
            raise ValueError("memory field must share the eigenvalue list")
        self.u = u
        self.v = v
        self.memory = memory

    def copy(self):
        return ExtendedVector(self.u.copy(), self.v.copy(), self.memory.copy())

    def __sub__(self, other):
        return ExtendedVector(self.u - other.u, self.v - other.v,
                              self.memory - other.memory)

    def __add__(self, other):
        return ExtendedVector(self.u + other.u, self.v + other.v,
                              self.memory + other.memory)


def norm_H(z, sigma=0, mem_sq=None):
    """Extended norm at regularity sigma in [0, 1]:
    (||u||_{sigma+1}^2 + ||v||_sigma^2 + ||memory||_sigma^2)^(1/2).

    `mem_sq` is `z.memory.node_norms_sq(sigma)` when the caller has it.
    """
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("the regularity sigma must lie in [0, 1], not %r" % (sigma,))
    lam = z.u.lambdas
    part_u = np.sum(lam ** (sigma + 1) * z.u.coeffs ** 2)
    part_v = np.sum(lam ** sigma * z.v.coeffs ** 2)
    if mem_sq is None:
        mem_sq = z.memory.node_norms_sq(sigma)
    part_m = np.sum(z.memory.weights * mem_sq)
    return float(np.sqrt(part_u + part_v + part_m))


# ---------------------------------------------------------------------------
# the history -> state bridge
# ---------------------------------------------------------------------------

def lambda_map(eta, kernel):
    """Map a history field to the state field it induces, on the kernel grid.

    (L eta)(tau) = -int mu'(tau + s) eta(s) ds + sum over jumps s_n > tau
    of mu_n * eta(s_n - tau), with eta linearly interpolated off-grid; see
    `lambda_map_pointwise` for other tau.
    """
    tau = kernel.grid
    return StateField(tau, lambda_map_pointwise(eta, kernel, tau),
                      kernel.nu_grid * eta.ds, eta.lambdas, eta.ds)


def lambda_map_pointwise(eta, kernel, tau):
    """Values of the mapped field at arbitrary tau points (no weights).

    When the kernel states its decay rate, -mu'(tau + s_j) = -mu'(tau + s_0)
    q^j with q = exp(-rate ds) on the field's nodes s_j = s_0 + j ds, for
    every tau, so the tau x s matrix of -mu'(tau + s) has rank one and the
    integral is the column -mu'(tau + s_0) times one modal row,
    O((n_tau + n_s) J).  Otherwise it is the dense product, in blocks of tau.
    """
    s = eta.nodes
    tau = np.atleast_1d(_as_array(tau))
    if kernel.rate is not None:
        q = math.exp(-kernel.rate * eta.ds)
        col = -_as_array(kernel.mu_prime(tau + s[0]))
        out = col[:, None] * ((q ** np.arange(s.size)) @ eta.values) * eta.ds
    else:
        out = np.zeros((tau.size, eta.lambdas.size))
        block = max(1, int(2e6 // max(s.size, 1)))
        for lo in range(0, tau.size, block):
            tb = tau[lo:lo + block]
            w = -_as_array(kernel.mu_prime(tb[:, None] + s[None, :]))
            out[lo:lo + block] = (w @ eta.values) * eta.ds
    for s_n, mu_n in kernel.jumps:
        sel = tau < s_n
        if not np.any(sel):
            continue
        pts = s_n - tau[sel]
        for j in range(eta.lambdas.size):
            out[sel, j] += mu_n * np.interp(pts, s, eta.values[:, j],
                                            left=0.0, right=0.0)
    return out


def lambda_identity_residual(eta, kernel, tau):
    """|int mu(tau+s) eta(s) ds  -  int_tau^inf (L eta)(y) dy| per mode, l2.

    Left side by the field's midpoint rule; right side by composite Simpson
    in y with the same spacing, each integrand value being a fresh
    s-quadrature.  Used as a consistency diagnostic of the bridge map.
    """
    s = eta.nodes
    lhs = (_as_array(kernel.mu(tau + s)) @ eta.values) * eta.ds
    h = eta.ds
    y_max = kernel.s_max + tau
    n = int(np.ceil((y_max - tau) / h))
    if n % 2 == 1:
        n += 1
    y = tau + np.arange(n + 1) * h
    vals = lambda_map_pointwise(eta, kernel, y)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    rhs = (h / 3.0) * (w @ vals)
    return float(np.linalg.norm(lhs - rhs))


def big_l_map(z, kernel):
    """(x, eta) -> (x, L eta): history representation to state representation."""
    if not isinstance(z.memory, HistoryField):
        raise ValueError("memory must be a history field")
    return ExtendedVector(z.u.copy(), z.v.copy(), lambda_map(z.memory, kernel))


# ---------------------------------------------------------------------------
# snapshot persistence
# ---------------------------------------------------------------------------

def save_rows(path, header, rows):
    """Write the line `header`, then one line per row of the 2-D `rows`, its
    values comma-separated and formatted "%.17g", which reads back to the
    same float: the bytes of np.savetxt with that format."""
    rows = np.asarray(rows, dtype=float)
    fmt = ",".join(["%.17g"] * rows.shape[-1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt % tuple(row.tolist()) for row in rows)
