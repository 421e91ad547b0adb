import math

import numpy as np
import pytest

from memoryflow.attractors import (
    PointCloud,
    attraction_rate,
    box_counting_dim,
    cloud_from_states,
    hausdorff_semidist,
    load_cloud_csv,
    save_cloud_csv,
)
from memoryflow.kernels import make_exponential_kernel
from memoryflow.spaces import ExtendedVector, HistoryField, ModalVector, norm_H

from support import invariance_residual, unflatten


def brute_force_semidist(a, b):
    """Oracle: plain double loop over points."""
    worst = 0.0
    for p in a:
        best = math.inf
        for q in b:
            d = np.sqrt(np.sum((p - q) ** 2))
            best = min(best, d)
        worst = max(worst, best)
    return worst


def test_hausdorff_simple():
    b1 = PointCloud([[0.0, 0.0]])
    b2 = PointCloud([[3.0, 4.0]])
    assert hausdorff_semidist(b1, b2) == 5.0


def test_hausdorff_subset_is_zero():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 3))
    whole = PointCloud(pts)
    part = PointCloud(pts[::4])
    assert hausdorff_semidist(part, whole) == 0.0


def test_hausdorff_asymmetry():
    b1 = PointCloud([[0.0], [10.0]])
    b2 = PointCloud([[0.0]])
    assert hausdorff_semidist(b2, b1) == 0.0
    assert hausdorff_semidist(b1, b2) == 10.0


def test_hausdorff_matches_brute_force_exactly():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n1 = rng.integers(3, 40)
        n2 = rng.integers(3, 40)
        d = int(rng.integers(2, 7))
        a = rng.normal(size=(n1, d))
        b = rng.normal(size=(n2, d))
        got = hausdorff_semidist(PointCloud(a), PointCloud(b))
        assert got == brute_force_semidist(a, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cloud_refuses_non_finite_points(bad):
    # max(worst, nan) keeps worst, so a NaN point used to give distance 0.0
    with pytest.raises(ValueError, match="finite"):
        hausdorff_semidist(PointCloud([[bad, 5.0], [3.0, 4.0]]), PointCloud([[0.0, 0.0]]))


def test_invariance_residual_refuses_a_non_finite_image():
    cloud = PointCloud([[0.3, -0.4], [1.0, 2.0]])
    stepper = lambda pts, t: np.where(pts > 1.5, math.nan, pts)
    with pytest.raises(ValueError, match="finite"):
        invariance_residual(cloud, stepper, 1.0)


def test_hausdorff_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        hausdorff_semidist(PointCloud([[0.0, 1.0]]), PointCloud([[0.0]]))


def test_hausdorff_triangle_like_bound():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = PointCloud(rng.normal(size=(15, 3)))
        b = PointCloud(rng.normal(size=(12, 3)))
        c = PointCloud(rng.normal(size=(18, 3)))
        lhs = hausdorff_semidist(a, c)
        # middle term needs the symmetric distance of (b, c)
        mid = max(hausdorff_semidist(b, c), hausdorff_semidist(c, b))
        assert lhs <= hausdorff_semidist(a, b) + mid + 1e-12


def test_attraction_rate_exact_exponential():
    t = np.linspace(0, 10, 60)
    d = 3.0 * np.exp(-2.0 * t)
    fit = attraction_rate(np.column_stack([t, d]))
    assert fit.omega == pytest.approx(2.0, abs=1e-6)
    assert fit.q == pytest.approx(3.0, rel=1e-6)
    assert fit.r_squared > 1 - 1e-12


def test_attraction_rate_constant():
    t = np.linspace(0, 10, 30)
    d = np.full_like(t, 0.7)
    fit = attraction_rate(np.column_stack([t, d]))
    assert fit.omega == pytest.approx(0.0, abs=1e-12)


def test_attraction_rate_on_attractor():
    t = np.linspace(0, 5, 20)
    with pytest.raises(ValueError, match="already on attractor"):
        attraction_rate(np.column_stack([t, np.zeros_like(t)]))


def test_attraction_rate_floor_filter():
    t = np.linspace(0, 40, 100)
    d = np.exp(-t)  # underflows the floor past t = 23
    fit = attraction_rate(np.column_stack([t, d]))
    assert fit.omega == pytest.approx(1.0, abs=1e-9)
    assert fit.n_used < 100


def test_invariance_equilibrium_singleton():
    cloud = PointCloud([[0.3, -0.4, 1.0]])
    stepper = lambda pts, t: pts.copy()
    assert invariance_residual(cloud, stepper, 5.0) == 0.0


def test_invariance_negative_control():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(30, 2))
    cloud = PointCloud(pts)
    # a stepper that translates the cloud far away
    stepper = lambda p, t: p + 100.0
    res = invariance_residual(cloud, stepper, 1.0)
    diam = float(np.max(np.linalg.norm(pts - pts.mean(0), axis=1)))
    assert res > diam


def test_box_counting_segment():
    rng = np.random.default_rng(11)
    pts = np.column_stack([rng.uniform(0, 1, 1000), np.zeros(1000)])
    est = box_counting_dim(PointCloud(pts), r_range=(0.004, 0.2))
    assert est.dimension == pytest.approx(1.0, abs=0.15)


def test_box_counting_square():
    # scales kept coarse enough that 1000 points do not saturate the boxes
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 1, size=(1000, 2))
    est = box_counting_dim(PointCloud(pts), r_range=(0.05, 0.5))
    assert est.dimension == pytest.approx(2.0, abs=0.2)


def test_box_counting_single_point():
    cloud = PointCloud(np.tile([0.5, 0.5], (200, 1)))
    assert box_counting_dim(cloud).dimension == 0.0


def test_box_counting_union_monotone():
    rng = np.random.default_rng(17)
    seg = np.column_stack([rng.uniform(0, 1, 600), np.zeros(600)])
    blob = rng.uniform(0, 1, size=(600, 2))
    r_range = (0.03, 0.45)
    d_seg = box_counting_dim(PointCloud(seg), r_range=r_range).dimension
    d_union = box_counting_dim(PointCloud(np.vstack([seg, blob])),
                               r_range=r_range).dimension
    assert d_union >= max(d_seg, 0.0) - 0.15


def test_box_counting_guards():
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError, match="at least 100"):
        box_counting_dim(PointCloud(rng.normal(size=(20, 2))), r_range=(0.01, 0.5))
    with pytest.raises(ValueError, match="decade"):
        box_counting_dim(PointCloud(rng.normal(size=(200, 2))), r_range=(0.1, 0.5))


def test_cloud_from_states_norm_true():
    ker = make_exponential_kernel(1.0)
    lam = np.array([1.0, 4.0])
    rng = np.random.default_rng(23)

    def mk():
        eta = HistoryField.zeros(ker, lam)
        eta.values[:] = rng.normal(size=eta.values.shape) \
            * np.exp(-eta.nodes)[:, None]
        return ExtendedVector(ModalVector(rng.normal(size=2), lam),
                              ModalVector(rng.normal(size=2), lam), eta)

    z1, z2 = mk(), mk()
    cloud = cloud_from_states([z1, z2], iota=0)
    flat_dist = float(np.linalg.norm(cloud.points[0] - cloud.points[1]))
    assert flat_dist == pytest.approx(norm_H(z1 - z2, 0), rel=1e-12)


def test_cloud_layout_roundtrip():
    ker = make_exponential_kernel(1.0)
    lam = np.array([1.0, 4.0])
    rng = np.random.default_rng(29)
    eta = HistoryField.zeros(ker, lam)
    eta.values[:] = rng.normal(size=eta.values.shape) * np.exp(-eta.nodes)[:, None]
    z = ExtendedVector(ModalVector(rng.normal(size=2), lam),
                       ModalVector(rng.normal(size=2), lam), eta)
    cloud = cloud_from_states([z], iota=0)
    back = unflatten(cloud.points[0], eta)
    assert np.allclose(back.u.coeffs, z.u.coeffs, atol=1e-12)
    assert np.allclose(back.memory.values, eta.values, atol=1e-10)


def test_cloud_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    cloud = PointCloud(rng.normal(size=(25, 4)), label="bundle", norm="H0")
    p = tmp_path / "cloud.csv"
    save_cloud_csv(cloud, p)
    back = load_cloud_csv(p)
    assert back.label == "bundle"
    assert np.array_equal(back.points, cloud.points)
