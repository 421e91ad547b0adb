"""Point-cloud diagnostics: semidistances, rate fits, dimension estimates.

Clouds hold flattened state coordinates scaled so that the Euclidean
distance equals the extended norm they were built in (H0 by default).
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _read_table
from .spaces import save_rows

FIT_FLOOR = 1e-10           # distances below this are floating-point noise
FIT_SKIP_FRACTION = 0.2     # leading transient excluded from rate fits


@dataclass
class PointCloud:
    """Finite set of flattened states with the norm convention recorded.

    A point with a NaN or infinite coordinate is refused, since it would
    drop out of every max and min over the cloud."""
    points: np.ndarray
    label: str = ""
    norm: str = "H0"

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.size == 0:
            raise ValueError("cloud must be nonempty")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("cloud points must be finite")

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]


def cloud_from_states(states, label="", iota=0, memory_stride=1):
    """Flatten extended states into a cloud; distances equal extended norms.

    Coordinates are u and v weighted by lambda^((iota+1)/2) and
    lambda^(iota/2), then the memory rows weighted by the square root of
    their node weights times lambda^((iota-1)/2).  memory_stride thins the
    memory block (with weight rescaling) to keep cloud dimensions
    manageable for large grids.
    """
    lam, st = states[0].u.lambdas, memory_stride
    w_u = lam ** ((iota + 1) / 2.0)
    w_v = lam ** (iota / 2.0)
    w_mem = np.sqrt(states[0].memory.weights[::st] * st)[:, None] \
        * (lam ** ((iota - 1) / 2.0))[None, :]
    pts = np.stack([np.concatenate([w_u * z.u.coeffs, w_v * z.v.coeffs,
                                    (w_mem * z.memory.values[::st]).ravel()])
                    for z in states])
    return PointCloud(pts, label=label, norm="H%d" % iota)


def hausdorff_semidist(b1, b2):
    """sup over b1 of the distance to b2 (asymmetric), exact max-min."""
    if b1.dim != b2.dim:
        raise ValueError("dimension mismatch")
    if b1.norm != b2.norm:
        raise ValueError("norm convention mismatch")
    p1, p2 = b1.points, b2.points
    worst = 0.0
    block = max(1, int(5e6 // max(p2.shape[0] * p2.shape[1], 1)))
    for lo in range(0, p1.shape[0], block):
        diff = p1[lo:lo + block, None, :] - p2[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        worst = max(worst, float(np.max(np.min(d, axis=1))))
    return worst


@dataclass
class RateFit:
    omega: float
    q: float
    r_squared: float
    n_used: int


def attraction_rate(dist_series):
    """Least-squares fit of log distance against time.

    The first fifth of the samples and all values at the floating-point
    floor are excluded.  Returns the decay rate (negated slope), the
    intercept factor, and the fit quality.
    """
    arr = np.asarray(dist_series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a sequence of (t, d) pairs")
    t, d = arr[:, 0], arr[:, 1]
    if np.all(d <= FIT_FLOOR):
        raise ValueError("already on attractor")
    skip = int(math.floor(FIT_SKIP_FRACTION * t.size))
    keep = np.arange(t.size) >= skip
    keep &= d > FIT_FLOOR
    if np.count_nonzero(keep) < 5:
        raise ValueError("need at least 5 usable samples above the floor")
    tt, dd = t[keep], np.log(d[keep])
    slope, intercept = np.polyfit(tt, dd, 1)
    pred = slope * tt + intercept
    ss_res = float(np.sum((dd - pred) ** 2))
    ss_tot = float(np.sum((dd - dd.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(omega=float(-slope), q=float(np.exp(intercept)),
                   r_squared=r2, n_used=int(np.count_nonzero(keep)))


@dataclass
class BoxCountResult:
    dimension: float
    radii: np.ndarray
    counts: np.ndarray


def box_counting_dim(cloud, r_range=None):
    """Box-occupancy slope of ln N(r) against ln(1/r); an estimate, not a bound.

    Wants at least 100 points and a scale range spanning a decade, which it
    samples at 8 radii; a cloud that collapses to one point has dimension zero.
    """
    pts = cloud.points
    uniq = np.unique(pts, axis=0)
    if uniq.shape[0] == 1:
        return BoxCountResult(0.0, np.array([]), np.array([]))
    if len(cloud) < 100:
        raise ValueError("need at least 100 points for a dimension estimate")
    if r_range is None:
        span = float(np.max(np.max(pts, axis=0) - np.min(pts, axis=0)))
        r_range = (span / 64.0, span / 4.0)
    r_lo, r_hi = sorted(map(float, r_range))
    if r_hi / r_lo < 10.0 - 1e-9:
        raise ValueError("scale range must span at least one decade")
    radii = np.geomspace(r_hi, r_lo, 8)
    origin = np.min(pts, axis=0)
    counts = np.empty(radii.size)
    for i, r in enumerate(radii):
        boxes = np.floor((pts - origin) / r).astype(np.int64)
        counts[i] = np.unique(boxes, axis=0).shape[0]
    slope = np.polyfit(np.log(1.0 / radii), np.log(counts), 1)[0]
    return BoxCountResult(float(slope), radii, counts)


def save_cloud_csv(cloud, path):
    save_rows(path, "# label=%s norm=%s" % (cloud.label, cloud.norm), cloud.points)


def load_cloud_csv(path, dim=None):
    """A cloud saved by save_cloud_csv: a `# key=value ...` line, then a text
    table without a header whose rows are finite and `dim` wide, or as wide
    as the first row."""
    with open(path) as fh:
        first = fh.readline()
    items = first.lstrip("# ").split() if first.startswith("#") else []
    if not all("=" in item for item in items):
        raise ValueError("line 1 of %s: a cloud header holds key=value pairs after '#', "
                         "not %r" % (path, first.strip()))
    meta = dict(item.split("=", 1) for item in items)
    _, lines, rows = _read_table(path, "cloud file", header=False, finite=True)
    if not rows:
        raise ValueError("cloud file: %s holds no points" % path)
    for i, row in zip(lines, rows):
        if row.size != (dim or rows[0].size):
            raise ValueError("cloud file: line %d of %s has %d cells, not %d"
                             % (i, path, row.size, dim or rows[0].size))
    return PointCloud(np.array(rows), label=meta.get("label", ""),
                      norm=meta.get("norm", "H0"))
