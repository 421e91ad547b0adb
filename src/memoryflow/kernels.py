"""Memory kernels: construction, admissibility, checks, derived quantities.

A memory kernel is a nonincreasing summable weight mu on (0, inf) with unit
first moment.  From it we derive k(s) = integral of mu over [s, inf), the
convolution kernel actually seen by the equation, and nu = 1/mu, the weight
of the minimal-state space.  Kernels carry a decay certificate (theta,
delta_decay) asserting the exponential-domination inequality

    mu(t + s) <= theta * exp(-delta * t) * mu(s)   for all t, s > 0.

A kernel is its table of pieces, each geometric or linear, and of stated
drops: `MemoryKernel` takes that table, the only way to build a kernel,
and derives from it mu, mu', k, the first moment and the decay rate in
closed form.  Admissibility (mu nonincreasing, unit first moment, a
well-formed jump list and this certificate) is decided exactly, once, when
a kernel is built, so a kernel that exists is admissible; it keeps the
certificate's worst ratio.  The built-in families (exponential, flat-zone,
jump-exponential, tabulated) each state their table.
"""

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_DS = 0.01
MAX_GRID_NODES = 10 ** 7    # a grid's node budget: 80 MB per array of its tables
TAIL_FLOOR = 1e-10          # s_max chosen so theta*exp(-delta*s_max) < TAIL_FLOOR
ANALYTIC_RTOL = 1e-9        # inequality tolerance for closed-form kernels
TABULATED_RTOL = 1e-6       # looser: linear interpolation noise


class KernelError(ValueError):
    """Raised when a kernel fails an admissibility requirement."""


class KernelFileError(KernelError):
    """Raised when a kernel file is malformed: a config error, not a failed
    admissibility check."""


def finite_number(value):
    """Whether a config value is a finite int or float (a bool is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _as_array(s):
    return np.asarray(s, dtype=float)


def _reciprocal(m):
    """1/m where m > 0, zero elsewhere."""
    return np.where(m > 0, 1.0 / np.where(m > 0, m, 1.0), 0.0)


class MemoryKernel:
    """A kernel stated by its pieces, with a decay certificate.

    Piece i holds on [a_i, a_(i+1)), from a_0 = 0, the last one up to
    `end`, past which mu is 0.  The columns c, r and beta give one number
    per piece, or one for all; with x = s - a_i a piece is geometric,
    c*exp(-r*x) with r > 0 and beta = 0, or linear, c + beta*x with r = 0.
    Only a geometric piece may reach to infinity.  `jumps` lists the stated
    drops (s_n, mu(s_n-) - mu(s_n)).  With `normalize`, c, beta and the
    drops are scaled to unit first moment before anything is derived from
    them, so the public a, c, r, beta, end and jumps rebuild the same
    kernel with normalize=False.

    mu, mu', k and the first moment are closed forms in the pieces, and so
    is `rate`.  The grid of step ds ends at s_max: by default `end`, or for
    a kernel without end the first grid point with
    theta*exp(-delta_decay*s_max) < TAIL_FLOOR.

    Admissibility is decided here, once: mu is nonincreasing, its first
    moment is 1, its jumps rise with positive drops, and the certificate
    holds, or a KernelError names every failure.  A built kernel keeps the
    certificate's worst ratio as `nec_worst`.
    """

    def __init__(self, a, c, r, beta, *, end=math.inf, jumps=(), normalize=True,
                 theta, delta_decay, s_max=None, ds=DEFAULT_DS, kernel_id="custom",
                 rtol=ANALYTIC_RTOL):
        if theta < 1:
            raise KernelError("theta must be >= 1")
        if delta_decay <= 0:
            raise KernelError("delta_decay must be positive")
        if ds <= 0 or (s_max is not None and s_max <= 0):
            raise KernelError("s_max and ds must be positive")
        span = s_max if s_max is not None else end if math.isfinite(end) \
            else math.log(theta / TAIL_FLOOR) / delta_decay
        if not math.isfinite(span / ds):
            raise KernelError("s_max = %g over ds = %g is not a finite number of grid "
                              "nodes" % (span, ds))
        if span / ds > MAX_GRID_NODES:
            raise KernelError("s_max = %g over ds = %g is %.3g grid nodes, more than "
                              "the budget of %d" % (span, ds, span / ds, MAX_GRID_NODES))
        a, c, r, beta = np.broadcast_arrays(*(np.array(v, dtype=float, ndmin=1)
                                              for v in (a, c, r, beta)))
        end = float(end)
        geo = r > 0
        if a.ndim != 1 or a[0] != 0 or np.any(np.diff(a) <= 0) \
                or not (end >= a[-1] and end > 0):
            raise KernelError("piece starts must rise strictly from 0, and end past 0 "
                              "at or after the last")
        if np.any(r < 0) or np.any(beta[geo] != 0) or (math.isinf(end) and not geo[-1]):
            raise KernelError("each piece must be geometric (r > 0, beta = 0) or "
                              "linear (r = 0), and only a geometric one may reach "
                              "infinity")
        h = np.append(a[1:], end) - a
        r_geo = np.where(geo, r, 1.0)
        eh = np.exp(-r * h)                  # 0 on an infinite piece, 1 on a linear one
        hx = np.where(np.isfinite(h), h, 0.0)
        hl = np.where(geo, 0.0, hx)          # width of a linear piece

        def integrals(c, beta):
            # the k coefficient c/r of a geometric piece, the c of a linear
            # one, and the integrals of mu and of s*mu over each piece
            g = np.where(geo, c, 0.0) / r_geo
            cl = np.where(geo, 0.0, c)
            mass = g * (1.0 - eh) + hl * (cl + beta * hl / 2.0)
            moment = a * mass + g * (1.0 - (1.0 + r * hx) * eh) / r_geo \
                + hl * hl * (cl / 2.0 + beta * hl / 3.0)
            return g, cl, mass, moment

        jumps = [(float(s_n), float(amp)) for s_n, amp in jumps]
        if normalize:
            scale = 1.0 / integrals(c, beta)[3].sum()
            c, beta = c * scale, beta * scale
            jumps = [(s_n, amp * scale) for s_n, amp in jumps]
        self.a, self.c, self.r, self.beta, self.end, self.jumps = a, c, r, beta, end, jumps
        self._g, self._cl, mass, moment = integrals(c, beta)
        self._h, self._eh, self._hl = h, eh, hl
        self._v = c * eh + beta * hl        # each piece's value at its right end
        self._beyond = np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)  # mass past each piece
        self.first_moment = float(moment.sum())
        if s_max is None:    # grid-aligned, with theta*exp(-delta*s_max) < TAIL_FLOOR
            s_max = math.ceil(math.log(theta / TAIL_FLOOR) / delta_decay / ds) * ds \
                if math.isinf(end) else end
        self.theta, self.delta_decay = float(theta), float(delta_decay)
        self.s_max, self.ds = float(s_max), float(ds)
        self.kernel_id, self.rtol = kernel_id, rtol

        n = int(round(self.s_max / self.ds))
        if n < 1:
            raise KernelError("s_max = %g must exceed ds/2 = %g, or the quadrature grid "
                              "is empty" % (self.s_max, self.ds / 2))
        if n < 2:
            raise KernelError("ds = %g leaves one quadrature node below s_max = %g; "
                              "the grid needs at least two" % (self.ds, self.s_max))
        self.grid = (np.arange(n) + 0.5) * self.ds   # midpoint nodes, never 0
        self.mu_grid = self.mu(self.grid)
        if not np.all(np.isfinite(self.mu_grid)) or np.any(self.mu_grid < 0):
            raise KernelError("mu must be finite and nonnegative on the grid")
        self.nu_grid = _reciprocal(self.mu_grid)
        self._cum_mass = np.cumsum(self.mu_grid) * self.ds

        failures = []
        # no linear piece rises, and no break steps up past the roundoff of the
        # value at the end of the piece before it
        v = self._v[:-1]
        up = c[1:] - v > rtol * (np.abs(v) + np.abs(beta * hl)[:-1])
        if np.any(beta > 0) or np.any(up):
            failures.append("mu is not nonincreasing: a linear piece rises or a break "
                            "steps up")
        if not abs(self.first_moment - 1.0) <= 10 * rtol:
            failures.append("first moment %.6g differs from 1" % self.first_moment)
        last = [0.0] + [s_n for s_n, _ in jumps[:-1]]
        if any(amp <= 0 or s_n <= prev for (s_n, amp), prev in zip(jumps, last)):
            failures.append("jump list must have increasing points, positive amplitudes")
        nec = check_nec(self, self.theta, self.delta_decay)
        self.nec_worst = nec.worst_ratio
        if not nec.passed:
            failures.append("decay certificate (theta=%g, delta=%g) fails: worst ratio %.6g"
                            % (self.theta, self.delta_decay, nec.worst_ratio))
        if failures:
            raise KernelError("inadmissible kernel %r: %s" % (kernel_id, "; ".join(failures)))

    # -- closed forms in the pieces -----------------------------------------

    def _locate(self, s):
        """s as an array, and the index of the piece holding each point."""
        s = _as_array(s)
        return s, 0 if self.a.size == 1 else \
            np.maximum(np.searchsorted(self.a, s, side="right") - 1, 0)

    def mu(self, s):
        s, i = self._locate(s)
        out = np.exp((s - self.a[i]) * -self.r[i]) * self.c[i] + (s - self.a[i]) * self.beta[i]
        return out if math.isinf(self.end) else np.where(s <= self.end, out, 0.0)

    def mu_prime(self, s):
        s, i = self._locate(s)
        out = np.exp((s - self.a[i]) * -self.r[i]) * (-self.r[i] * self.c[i]) + self.beta[i]
        return out if math.isinf(self.end) else np.where(s <= self.end, out, 0.0)

    def k(self, s):
        """k(s) = integral of mu over [s, inf); zero from s_max on."""
        s = _as_array(s)
        t, i = self._locate(np.minimum(s, self.s_max))
        x = t - self.a[i]
        g, eh, hl, cl, beta = self._g[i], self._eh[i], self._hl[i], self._cl[i], self.beta[i]
        inside = g * (np.exp(-self.r[i] * x) - eh) \
            + (hl - x) * (cl + beta * (hl + x) / 2.0) + self._beyond[i]
        return np.where(s >= self.s_max, 0.0, inside)

    @property
    def rate(self):
        """r of a kernel of one geometric piece on [0, inf), else None: the exact
        decay rate of mu, mu' and, below s_max, k, on which the memory force,
        the state read-back and the bridge map take their fast paths."""
        return float(self.r[0]) if self.a.size == 1 and math.isinf(self.end) else None

    # -- derived quantities -------------------------------------------------

    @cached_property
    def mu_prime_grid(self):
        """mu' at the grid nodes, evaluated on first use."""
        return np.asarray(self.mu_prime(self.grid), dtype=float)

    def nu(self, tau):
        """nu = 1/mu, set to zero wherever mu vanishes (finite delay case)."""
        return _reciprocal(_as_array(self.mu(_as_array(tau))))

    @property
    def mass(self):
        """Total mass of mu, i.e. k(0)."""
        return float(self.k(0.0))

    @property
    def has_jumps(self):
        return len(self.jumps) > 0

    def __repr__(self):
        return "MemoryKernel(%s)" % self.kernel_id


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def make_exponential_kernel(delta, *, ds=DEFAULT_DS, s_max=None):
    """mu(s) = delta^2 exp(-delta s): unit first moment for every delta.

    k(s) = delta*exp(-delta*s), so delta = 1 also satisfies k(0) = 1.
    The domination certificate is (theta, delta) = (1, delta), with equality.
    One geometric piece on [0, inf), so delta is the kernel's decay rate.
    """
    if delta <= 0:
        raise KernelError("delta must be positive")
    d = float(delta)
    return MemoryKernel([0.0], d * d, d, 0.0, normalize=False, theta=1.0, delta_decay=d,
                        s_max=s_max, ds=ds, kernel_id="exponential(delta=%g)" % d)


def make_flatzone_kernel(*, ds=DEFAULT_DS, s_max=None):
    """Kernel with a flat plateau on [1, 2): decays, stalls, decays again.

    Pieces exp(-s), exp(-1), exp(1-s), scaled to unit first moment.  Fails
    the pointwise condition mu' + delta*mu <= 0 for every delta, yet
    satisfies exponential domination with theta = e, delta = 1 (sharp on
    the region s <= 1, t + s >= 2).
    """
    e1 = math.exp(-1.0)
    return MemoryKernel([0.0, 1.0, 2.0], [1.0, e1, e1], [1.0, 0.0, 1.0], 0.0,
                        theta=math.e, delta_decay=1.0, s_max=s_max, ds=ds,
                        kernel_id="flatzone")


def make_jump_exponential_kernel(delta, jump_spec, *, ds=DEFAULT_DS, s_max=None):
    """Exponential profile with downward jumps at given points.

    jump_spec is a sequence of (s_n, drop_n) with drop_n in (0, 1); the
    density is C * delta^2 * exp(-delta s) * prod_{s_n <= s} (1 - drop_n),
    one geometric piece between jumps, with C fixed by the unit-first-moment
    requirement.  The certificate theta = 1 / prod(1 - drop_n) covers the
    worst jump crossing.
    """
    if delta <= 0:
        raise KernelError("delta must be positive")
    spec = sorted((float(s), float(r)) for s, r in jump_spec)
    if any(not 0.0 < r < 1.0 for _, r in spec) or any(s <= 0 for s, _ in spec):
        raise KernelError("jump drops must be in (0,1) at positive locations")
    d = float(delta)
    s_n, drop = np.array(spec).reshape(-1, 2).T
    a = np.append(0.0, s_n)
    level = np.cumprod(np.append(1.0, 1.0 - drop))
    return MemoryKernel(
        a, level * d * d * np.exp(-d * a), d, 0.0,
        jumps=zip(s_n, level[:-1] * d * d * np.exp(-d * s_n) * drop),
        theta=1.0 / level[-1], delta_decay=d, s_max=s_max, ds=ds,
        kernel_id="jump_exponential(delta=%g,n=%d)" % (d, len(spec)))


def make_tabulated_kernel(s_pts, mu_pts, *, theta, delta_decay,
                          ds=None, kernel_id="tabulated", normalize=False):
    """Piecewise-linear kernel from (s, mu) samples.

    The interpolant itself is the kernel: a linear piece between samples,
    a constant one before the first sample, and zero past the last, whose
    value holds at that sample (a piece of width 0).  k and the first
    moment are exact integrals of the broken line.  With `normalize` the
    table is rescaled to unit first moment.
    """
    s_pts = np.asarray(s_pts, dtype=float)
    mu_pts = np.asarray(mu_pts, dtype=float)
    if s_pts.ndim != 1 or s_pts.size < 2 or np.any(np.diff(s_pts) <= 0):
        raise KernelError("table abscissae must be strictly increasing")
    if s_pts[0] < 0:
        raise KernelError("table abscissae start at s = %g, but mu lives on s >= 0"
                          % s_pts[0])
    if np.any(mu_pts < 0):
        raise KernelError("table values must be nonnegative")
    s_end = float(s_pts[-1])
    if s_pts[0] > 0:
        s_pts, mu_pts = np.append(0.0, s_pts), np.append(mu_pts[0], mu_pts)
    return MemoryKernel(
        s_pts, mu_pts, 0.0, np.append(np.diff(mu_pts) / np.diff(s_pts), 0.0), end=s_end,
        normalize=normalize, theta=theta, delta_decay=delta_decay,
        ds=ds if ds is not None else min(DEFAULT_DS, s_end / 100),
        kernel_id=kernel_id, rtol=TABULATED_RTOL)


# ---------------------------------------------------------------------------
# checks and derived operations
# ---------------------------------------------------------------------------

@dataclass
class NecResult:
    passed: bool
    worst_ratio: float


def check_nec(kernel, theta, delta, rtol=None):
    """Exact check of mu(t+s) <= theta*exp(-delta t)*mu(s) for all t, s >= 0.

    phi(x) = log mu(x) + delta*x must never rise by more than log theta
    going right.  phi is affine on a geometric piece, concave on a linear
    one, and steps down at the breaks of a nonincreasing table, so the worst
    s is a piece's start, and one sweep from the right reads each piece's
    ends and a linear piece's stationary point.  Each rise is a sum of
    slope*width and log ratios, so none is inf - inf.  Returns the pass flag
    and the worst ratio sup mu(t+s)*e^(delta t)/(theta mu(s)); rtol (the
    kernel's by default) allows for roundoff.  A delta <= 0 states no decay
    and raises a KernelError.
    """
    if theta < 1:
        raise KernelError("theta must be >= 1")
    if not delta > 0:
        raise KernelError("delta must be positive")
    rtol = kernel.rtol if rtol is None else rtol
    a, c, r, beta, h, ends = (v.tolist() for v in (kernel.a, kernel.c, kernel.r,
                                                   kernel.beta, kernel._h, kernel._v))
    worst, j = -math.inf, None    # top: sup of phi right of a_j, less phi(a_j)
    for i in np.flatnonzero(kernel.c > 0)[::-1].tolist():    # the pieces with mass
        if r[i] > 0:              # affine; a flat piece of infinite width gains 0
            rise = max(0.0, (delta - r[i]) * h[i]) if delta != r[i] else 0.0
        else:                     # concave: its end, and its stationary point x
            rise = max(0.0, math.log(ends[i]) - math.log(c[i]) + delta * h[i]) \
                if ends[i] > 0 else 0.0
            x = -c[i] / beta[i] - 1.0 / delta if beta[i] < 0 else 0.0
            if 0.0 < x < h[i]:
                rise = max(rise, math.log(-beta[i]) - math.log(delta) - math.log(c[i])
                           + delta * x)
        top = rise if j is None else \
            max(rise, top + delta * (a[j] - a[i]) + math.log(c[j]) - math.log(c[i]))
        worst, j = max(worst, top), i
    excess = worst - math.log(theta)
    ratio = math.exp(excess) if excess < 709.78 else math.inf   # e^709.78 ~ max float
    return NecResult(ratio <= 1.0 + rtol, ratio)


def check_dafermos(kernel, delta):
    """Exact check of mu' + delta*mu <= 0: r >= delta on each geometric piece
    with mass, and at both ends of each linear one, where it is affine."""
    if delta <= 0:
        raise KernelError("delta must be positive")
    geo = kernel.r > 0
    with np.errstate(over="ignore"):      # an overflow to inf is a fair failure
        lhs = np.maximum(kernel.c, kernel._v) * delta + kernel.beta
    return bool(np.all(np.where(geo, (kernel.r >= delta) | (kernel.c <= 0), lhs <= 0)))


def flatness_rate(kernel):
    """mu-mass of the flat pieces (linear, beta = 0, c > 0) over k(0), exactly."""
    flat = (kernel.r == 0) & (kernel.beta == 0) & (kernel.c > 0)
    k0 = kernel.mass
    return float(np.sum(kernel.c[flat] * kernel._hl[flat]) / k0) if k0 > 0 else 0.0


def truncated_kernel(kernel, nu_small):
    """Level the kernel below s_nu, the largest node with mass <= nu_small/2.

    Returns (s_nu, mu_nu) where mu_nu(s) = mu(max(s, s_nu)); the truncated
    kernel is bounded by mu(s_nu) near zero and untouched beyond s_nu.
    """
    if nu_small <= 0:
        raise KernelError("nu_small must be positive")
    if nu_small / 2.0 >= kernel.mass:
        raise KernelError("truncation exceeds kernel mass")
    # mass up to node i: full cells below plus half of the node cell
    cum_at_node = kernel._cum_mass - 0.5 * kernel.mu_grid * kernel.ds
    ok = np.nonzero(cum_at_node <= nu_small / 2.0)[0]
    s_nu = float(kernel.grid[ok[-1]]) if ok.size else float(kernel.grid[0])

    def mu_nu(s):
        return kernel.mu(np.maximum(_as_array(s), s_nu))

    return s_nu, mu_nu


def split_sets(kernel, delta_split, grid=None):
    """Complementary masks {mu' + delta*mu > 0} and {<= 0} over the grid."""
    if delta_split <= 0:
        raise KernelError("delta_split must be positive")
    grid = kernel.grid if grid is None else _as_array(grid)
    vals = _as_array(kernel.mu_prime(grid)) + delta_split * _as_array(kernel.mu(grid))
    p_mask = vals > 0
    return p_mask, ~p_mask


# ---------------------------------------------------------------------------
# kernel definition files
# ---------------------------------------------------------------------------

def path_beside(path, name, field):
    """`name` resolved against the directory of the file `path`; absolute names
    pass.  A name that is not a string raises a ValueError naming `field`."""
    if not isinstance(name, str):
        raise ValueError("%s must be a path, not %r in %s" % (field, name, path))
    return os.path.join(os.path.dirname(os.path.abspath(path)), name)


def _read_json_object(path, error=ValueError):
    """The object in the JSON file `path`; a parse error or a top-level value
    that is not an object raises `error` naming the file."""
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error("parse error in %s at line %d: %s"
                        % (path, exc.lineno, exc.msg)) from exc
    if not isinstance(spec, dict):
        raise error("the top level of %s must be a JSON object, not %s"
                    % (path, type(spec).__name__))
    return spec


def _read_table(path, field, *, header=True, sep=",", finite=False, error=ValueError):
    """A numeric text table: its column names (None without a `header`), the
    1-based line of each row, and the rows as arrays.

    '#' starts a comment and blank lines are skipped.  With `header` the
    first line that is not blank names the columns, after an optional '#',
    and every row must have that many cells.  Cells are split at `sep`
    (None: whitespace) and must be numbers, and finite ones with `finite`.
    An error raises `error` naming `field`, the file and the line.
    """
    try:
        with open(path) as fh:
            lines = [(i, line) for i, line in enumerate(fh, 1) if line.strip()]
    except OSError as exc:
        raise error("%s: %s" % (field, exc)) from None
    names = None
    if header:
        head = lines.pop(0)[1].strip().lstrip("#") if lines else ""
        names = [name.strip() for name in head.split("#")[0].split(sep)]
    line_nos, rows = [], []
    for i, line in lines:
        text = line.split("#")[0].strip()
        if not text:
            continue
        cells = text.split(sep)
        if names is not None and len(cells) != len(names):
            raise error("%s: line %d of %s has %d cells, not %d"
                        % (field, i, path, len(cells), len(names)))
        try:
            rows.append(np.array(cells, dtype=float))
            bad = finite and not np.all(np.isfinite(rows[-1]))
        except ValueError:
            bad = True
        if bad:
            raise error("%s: line %d of %s holds a cell that is not a %snumber: %r"
                        % (field, i, path, "finite " if finite else "", text))
        line_nos.append(i)
    return names, line_nos, rows


def _read_kernel_table(path, table_path):
    """The s and mu columns of the table of the kernel file `path`; a missing
    column raises a KernelFileError naming the kernel file and its field."""
    where = "kernel field 'table' (%s) in %s" % (table_path, path)
    names, _, rows = _read_table(path_beside(path, table_path, "kernel field 'table'"),
                                 where, error=KernelFileError)
    for name in ("s", "mu"):
        if name not in names:
            raise KernelFileError("%s: the table has no %r column" % (where, name))
    table = np.array(rows).reshape(-1, len(names))
    return table[:, [names.index("s"), names.index("mu")]].T


def load_kernel_file(path):
    """Build a kernel from a JSON definition.

    Fields: family (exponential | flatzone | tabulated), delta, theta,
    jumps [(s, drop), ...], table (CSV path with s, mu columns, relative to
    this file), normalize (bool), ds, s_max.  A malformed file raises a
    KernelFileError naming the field.
    """
    spec = _read_json_object(path, KernelFileError)

    def positive(name, default=None, required=False):
        # a finite number > 0, or the default when the field is absent (a
        # present null is refused, not read as absent)
        if name not in spec and not required:
            return default
        value = spec.get(name)
        if not (finite_number(value) and value > 0):
            raise KernelFileError("kernel field %r must be a finite number > 0, not %r "
                                  "in %s" % (name, value, path))
        return value

    family = spec.get("family")
    ds = positive("ds", DEFAULT_DS)
    s_max = positive("s_max")
    if family == "exponential":
        delta = positive("delta", required=True)
        jumps = [] if spec.get("jumps") is None else spec["jumps"]
        if not isinstance(jumps, list):
            raise KernelFileError("kernel field 'jumps' must be a list of [location, "
                                  "drop] pairs, not %r in %s" % (jumps, path))
        for i, jump in enumerate(jumps):
            if not (isinstance(jump, list) and len(jump) == 2
                    and all(map(finite_number, jump)) and jump[0] > 0 and 0 < jump[1] < 1):
                raise KernelFileError("kernel field 'jumps[%d]' must be a pair of finite "
                                      "numbers, location > 0 and drop in (0, 1), not %r "
                                      "in %s" % (i, jump, path))
        if jumps:
            return make_jump_exponential_kernel(delta, jumps, ds=ds, s_max=s_max)
        return make_exponential_kernel(delta, ds=ds, s_max=s_max)
    if family == "flatzone":
        return make_flatzone_kernel(ds=ds, s_max=s_max)
    if family == "tabulated":
        table_path = spec.get("table")
        if not isinstance(table_path, str):
            raise KernelFileError("kernel field 'table' must be the path of an s,mu "
                                  "CSV, not %r in %s" % (table_path, path))
        normalize = spec.get("normalize", False)
        if not isinstance(normalize, bool):
            raise KernelFileError("kernel field 'normalize' must be true or false, "
                                  "not %r in %s" % (normalize, path))
        s_pts, mu_pts = _read_kernel_table(path, table_path)
        return make_tabulated_kernel(
            s_pts, mu_pts, theta=positive("theta", required=True),
            delta_decay=positive("delta", required=True), ds=positive("ds"),
            kernel_id=spec.get("id", "tabulated:%s" % table_path), normalize=normalize)
    raise KernelFileError("kernel field 'family' must be 'exponential', 'flatzone' or "
                          "'tabulated', not %r in %s" % (family, path))
