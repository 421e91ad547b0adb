import math

import numpy as np
import pytest
from scipy.integrate import quad

from memoryflow.attractors import PointCloud, save_cloud_csv
from memoryflow.evolution import Trajectory, save_trajectory_csv
from memoryflow.kernels import (
    make_exponential_kernel,
    make_jump_exponential_kernel,
)
from memoryflow.spaces import (
    ExtendedVector,
    HistoryField,
    ModalVector,
    STATE_TAIL_DROP,
    StateField,
    big_l_map,
    lambda_identity_residual,
    lambda_map,
    norm_H,
    save_rows,
)

from support import (
    h_functional,
    history_from_profile,
    record_kernel_calls,
    right_translate,
    s_derivative,
    tail_function,
)


@pytest.fixture(scope="module")
def exp1():
    return make_exponential_kernel(1.0)


def scalar_lambdas():
    return np.array([1.0])


def constant_history(kernel, c=1.0, lambdas=None):
    lam = scalar_lambdas() if lambdas is None else lambdas
    eta = HistoryField.zeros(kernel, lam)
    eta.values[:] = c
    return eta


def random_smooth_history(kernel, lambdas, rng, n_terms=3):
    """Smooth random field: few decaying polynomial-exponential profiles."""
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


# -- norms ------------------------------------------------------------------

def test_norm_zero(exp1):
    lam = np.array([1.0, 4.0])
    z = ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam),
                       HistoryField.zeros(exp1, lam))
    assert norm_H(z, 0) == 0.0
    assert norm_H(z, 1) == 0.0


def test_norm_single_mode(exp1):
    lam = np.array([1.0])
    z = ExtendedVector(ModalVector(np.array([1.0]), lam),
                       ModalVector.zeros(lam), HistoryField.zeros(exp1, lam))
    assert norm_H(z, 0) == pytest.approx(1.0, abs=1e-14)


def test_norm_componentwise(exp1):
    rng = np.random.default_rng(3)
    lam = np.array([1.0, 4.0, 9.0])
    z = random_extended(exp1, lam, rng)
    for iota in (0, 1):
        # independent recomputation, term by term
        part_u = np.sum(lam ** (iota + 1) * z.u.coeffs ** 2)
        part_v = np.sum(lam ** iota * z.v.coeffs ** 2)
        part_m = np.sum(z.memory.weights[:, None]
                        * lam[None, :] ** (iota - 1) * z.memory.values ** 2)
        assert norm_H(z, iota) ** 2 == pytest.approx(part_u + part_v + part_m,
                                                     rel=1e-12)


@pytest.mark.parametrize("sigma", [-0.1, 2, math.nan])
def test_norm_H_refuses_a_sigma_outside_zero_one(exp1, sigma):
    lam = np.array([1.0, 4.0])
    z = ExtendedVector(ModalVector(np.array([1.0, 0.5]), lam), ModalVector.zeros(lam),
                       HistoryField.zeros(exp1, lam))
    with pytest.raises(ValueError, match=r"sigma must lie in \[0, 1\]"):
        norm_H(z, sigma)


def test_state_field_clamps_a_copy_and_keeps_the_callers_array(exp1):
    # xi = exp(-3 tau) against nu = exp(tau): the far tail's weighted mass is
    # below STATE_TAIL_DROP, so those nodes are zeroed in the field only
    lam = np.array([1.0, 4.0])
    vals = np.repeat(np.exp(-3.0 * exp1.grid)[:, None], 2, axis=1)
    before = vals.copy()
    xi = StateField(exp1.grid, vals, exp1.nu_grid * exp1.ds, lam, exp1.ds)
    assert vals.tobytes() == before.tobytes()
    contrib = xi.weights * (before ** 2 @ (1.0 / lam))
    drop = np.cumsum(contrib[::-1])[::-1] / np.sum(contrib) < STATE_TAIL_DROP
    assert 0 < np.count_nonzero(drop) < drop.size
    assert np.all(xi.values[drop] == 0.0)
    assert xi.values[~drop].tobytes() == before[~drop].tobytes()


def test_mismatched_dimensions(exp1):
    lam = np.array([1.0, 4.0])
    with pytest.raises(ValueError):
        ExtendedVector(ModalVector.zeros(lam),
                       ModalVector.zeros(np.array([1.0])),
                       HistoryField.zeros(exp1, lam))


# -- tail function and compactness functional --------------------------------

def test_tail_zero_field(exp1):
    eta = HistoryField.zeros(exp1, scalar_lambdas())
    for y in (1.0, 2.0, 10.0):
        assert tail_function(eta, y) == 0.0


def test_tail_constant_exponential(exp1):
    eta = constant_history(exp1)
    for y in (1.0, 2.0, 4.0):
        assert tail_function(eta, y) == pytest.approx(math.exp(-y), abs=1e-4)


def test_tail_last_node(exp1):
    eta = constant_history(exp1, 2.0)
    y = eta.nodes[-1]
    # single node left, its cell half covered
    manual = 0.5 * eta.weights[-1] * 4.0
    assert tail_function(eta, y) == pytest.approx(manual, rel=1e-14)


def test_tail_nonincreasing(exp1):
    rng = np.random.default_rng(11)
    eta = random_smooth_history(exp1, np.array([1.0, 4.0]), rng)
    ys = np.linspace(1.0, 10.0, 40)
    vals = [tail_function(eta, y) for y in ys]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_h_functional_zero(exp1):
    eta = HistoryField.zeros(exp1, scalar_lambdas())
    assert h_functional(eta) == 0.0


def test_h_functional_constant(exp1):
    # eta' = 0 and sup_{y>=1} y e^{-y} = e^{-1} at y = 1
    eta = constant_history(exp1)
    assert h_functional(eta) == pytest.approx(math.exp(-1.0), abs=1e-3)


def test_h_functional_linear_profile_oracle(exp1):
    eta = history_from_profile(exp1, scalar_lambdas(), lambda s: s)
    # term 1: derivative is 1, so int mu = 1
    d1, _ = quad(lambda s: math.exp(-s), 0, 50)
    # term 2: sup over y>=1 of y * int_y^inf s^2 e^-s ds on a dense grid
    ys = np.linspace(1, 20, 2000)
    tail = (ys ** 2 + 2 * ys + 2) * np.exp(-ys)
    d2 = float(np.max(ys * tail))
    assert h_functional(eta) == pytest.approx(d1 + d2, rel=1e-3)
    assert h_functional(eta) >= float(np.max(ys * tail)) - 1e-6


def test_h_functional_grid_mismatch(exp1):
    eta = constant_history(exp1)
    other = make_exponential_kernel(1.0, ds=0.02)
    etap = HistoryField.zeros(other, scalar_lambdas())
    with pytest.raises(ValueError, match="grid mismatch"):
        h_functional(eta, etap)


def test_s_derivative_of_linear(exp1):
    eta = history_from_profile(exp1, scalar_lambdas(), lambda s: 3.0 * s)
    d = s_derivative(eta)
    assert np.allclose(d.values, 3.0, atol=1e-9)


# -- the bridge map -----------------------------------------------------------

def test_lambda_map_zero(exp1):
    eta = HistoryField.zeros(exp1, scalar_lambdas())
    xi = lambda_map(eta, exp1)
    assert isinstance(xi, StateField)
    assert np.all(xi.values == 0.0)


def test_lambda_map_constant_exponential(exp1):
    # constant history against exp kernel: (L eta)(tau) = c * mu(tau)
    c = 2.5
    eta = constant_history(exp1, c)
    xi = lambda_map(eta, exp1)
    expect = c * exp1.mu(xi.nodes)
    sel = xi.nodes < 20.0
    assert np.allclose(xi.values[sel, 0], expect[sel], rtol=1e-3, atol=1e-12)


def test_lambda_map_jump_term():
    from memoryflow.spaces import lambda_map_pointwise
    ker = make_jump_exponential_kernel(1.0, [(1.5, 0.4)], ds=0.005)
    rng = np.random.default_rng(5)
    eta = random_smooth_history(ker, scalar_lambdas(), rng)
    taus = np.array([0.25, 0.75, 1.25])
    got = lambda_map_pointwise(eta, ker, taus)
    s_n, mu_n = ker.jumps[0]
    for row, tau in enumerate(taus):
        # hand-assembled two-term formula
        smooth = -np.sum(np.asarray(ker.mu_prime(tau + eta.nodes))
                         * eta.values[:, 0]) * eta.ds
        jump = mu_n * np.interp(s_n - tau, eta.nodes, eta.values[:, 0])
        assert got[row, 0] == pytest.approx(smooth + jump, rel=1e-12)


def direct_bridge(eta, kernel, tau):
    """(L eta)(tau) summed over the field's nodes one at a time, plus jumps."""
    out = np.zeros((tau.size, eta.lambdas.size))
    for s_j, row in zip(eta.nodes, eta.values):
        out -= np.asarray(kernel.mu_prime(tau + s_j))[:, None] * row * eta.ds
    for s_n, mu_n in kernel.jumps:
        for j in range(eta.lambdas.size):
            out[:, j] += mu_n * np.where(tau < s_n, np.interp(
                s_n - tau, eta.nodes, eta.values[:, j], left=0.0, right=0.0), 0.0)
    return out


def test_bridge_map_matches_direct_sum(exp1):
    from memoryflow.kernels import MemoryKernel, make_flatzone_kernel
    from memoryflow.spaces import lambda_map_pointwise

    # e^(-2s) on [0, 1], scaled to unit first moment, and zero past it,
    # where tau + s reaches
    cut = MemoryKernel([0.0], 4.0, 2.0, 0.0, end=1.0, theta=1.0, delta_decay=2.0,
                       kernel_id="cut")
    flat = make_flatzone_kernel(ds=0.05)
    jump = make_jump_exponential_kernel(1.0, [(1.5, 0.4)], ds=0.05)
    h = exp1.ds
    # the y points of lambda_identity_residual at tau = 1, built as it does
    n = int(np.ceil((exp1.s_max + 1.0 - 1.0) / h))
    y = 1.0 + np.arange(n + n % 2 + 1) * h
    # (kernel, tau, whether the rank-one path applies): exp1 states its
    # rate, so every tau takes it; the others state none
    cases = [(exp1, exp1.grid, True),
             (exp1, exp1.grid[:300] + 0.3 * h, True),     # a fraction of a cell off
             (exp1, np.array([0.7]), True),
             (exp1, y, True),
             (exp1, 1.5 * exp1.grid[:300], True),          # spacing 1.5 h
             (exp1, np.array([0.25, 0.75, 1.25]), True),
             (cut, cut.grid, False), (flat, flat.grid, False), (jump, jump.grid, False)]
    for kernel, tau, structured in cases:
        eta = random_smooth_history(kernel, np.array([1.0, 4.0, 9.0]),
                                    np.random.default_rng(11))
        assert (kernel.rate is not None) == structured
        got = lambda_map_pointwise(eta, kernel, tau)
        want = direct_bridge(eta, kernel, tau)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-13 * np.abs(want).max())
    # the identity residual through the same direct sums
    eta = random_smooth_history(exp1, np.array([1.0, 4.0]), np.random.default_rng(12))
    w = np.ones(y.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    lhs = (np.asarray(exp1.mu(1.0 + eta.nodes)) @ eta.values) * h
    want = float(np.linalg.norm(lhs - (h / 3.0) * (w @ direct_bridge(eta, exp1, y))))
    # the residual is about 2e-11 against sides of about 0.4: roundoff of
    # the sides, not the residual, sets the tolerance
    assert lambda_identity_residual(eta, exp1, 1.0) == pytest.approx(
        want, abs=1e-13 * np.abs(lhs).max())


def test_bridge_map_off_the_field_spacing_is_rank_one(monkeypatch):
    # tau spaced 1.5 h: -mu'(tau + s) is still geometric in s for every tau,
    # so the map evaluates the column -mu'(tau + s_0), not a tau x s matrix
    from memoryflow.spaces import lambda_map_pointwise
    kernel = make_exponential_kernel(1.0)
    eta = random_smooth_history(kernel, np.array([1.0, 4.0]), np.random.default_rng(13))
    tau = 1.5 * kernel.grid[:300]
    calls = record_kernel_calls(kernel, monkeypatch)
    lambda_map_pointwise(eta, kernel, tau)
    assert sum(np.prod(shape) for shape in calls["mu_prime"]) <= tau.size
    assert calls["mu"] == []


def test_history_field_off_its_spacing_is_refused(exp1):
    # nodes at spacing 0.02 with ds = 0.01 would take the rank-one bridge
    # map with the wrong ratio: 0.599 against the direct sum's 0.303
    from memoryflow.spaces import lambda_map_pointwise
    lam = np.array([1.0])
    nodes = 0.02 * (np.arange(500) + 0.5)
    weights = np.asarray(exp1.mu(nodes)) * 0.02
    with pytest.raises(ValueError, match="s_0 \\+ j\\*ds"):
        HistoryField(nodes, np.ones((500, 1)), weights, lam, 0.01)
    # with ds = 0.02 the same nodes are accepted and mapped as the direct
    # sum, near int_0^10 e^-(0.5 + s) ds = e^-0.5
    eta = HistoryField(nodes, np.ones((500, 1)), weights, lam, 0.02)
    tau = np.array([0.5])
    want = direct_bridge(eta, exp1, tau)
    assert want[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-4)
    np.testing.assert_allclose(lambda_map_pointwise(eta, exp1, tau), want, rtol=1e-12)


def test_lambda_identity_zero(exp1):
    eta = HistoryField.zeros(exp1, scalar_lambdas())
    assert lambda_identity_residual(eta, exp1, 1.0) == 0.0


def test_lambda_identity_constant(exp1):
    eta = constant_history(exp1)
    assert lambda_identity_residual(eta, exp1, 1.0) < 1e-8


def test_lambda_identity_refinement(exp1):
    # at least first-order decrease across the refinement span, for every
    # built-in kernel family; the jump family wobbles level to level (the
    # bridged field is genuinely discontinuous), so the rate is measured
    # across the whole span rather than per halving
    from memoryflow.kernels import make_flatzone_kernel
    makers = {
        "exponential": lambda ds: make_exponential_kernel(1.0, ds=ds),
        "flatzone": lambda ds: make_flatzone_kernel(ds=ds),
        "jump": lambda ds: make_jump_exponential_kernel(1.0, [(1.5, 0.3)], ds=ds),
    }
    steps = (0.08, 0.04, 0.02, 0.01)
    for name, mk in makers.items():
        resids = []
        for ds in steps:
            ker = mk(ds)
            eta = random_smooth_history(ker, np.array([1.0, 4.0]),
                                        np.random.default_rng(17))
            resids.append(lambda_identity_residual(eta, ker, 1.0))
        overall = math.log2(resids[0] / resids[-1]) / (len(steps) - 1)
        assert overall >= 1.0, (name, resids)


def test_big_l_contraction(exp1):
    rng = np.random.default_rng(23)
    lam = np.array([1.0, 4.0, 9.0, 16.0])
    for _ in range(25):
        z = random_extended(exp1, lam, rng)
        hz = big_l_map(z, exp1)
        for iota in (0, 1):
            assert norm_H(hz, iota) <= norm_H(z, iota) * (1 + 1e-6)


def test_big_l_unitary_attainment(exp1):
    # constant history with exponential kernel attains the norm
    z = ExtendedVector(ModalVector.zeros(scalar_lambdas()),
                       ModalVector.zeros(scalar_lambdas()),
                       constant_history(exp1, 3.0))
    hz = big_l_map(z, exp1)
    ratio = norm_H(hz, 0) / norm_H(z, 0)
    assert 0.999 <= ratio <= 1.0 + 1e-6


def test_big_l_requires_history(exp1):
    lam = scalar_lambdas()
    z = ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam),
                       StateField.zeros(exp1, lam))
    with pytest.raises(ValueError):
        big_l_map(z, exp1)


# -- translation --------------------------------------------------------------

def test_translate_identity(exp1):
    rng = np.random.default_rng(29)
    eta = random_smooth_history(exp1, scalar_lambdas(), rng)
    out = right_translate(eta, 0.0)
    assert np.array_equal(out.values, eta.values)


def test_translate_beyond_support(exp1):
    eta = constant_history(exp1)
    out = right_translate(eta, exp1.s_max + 1.0)
    assert np.all(out.values == 0.0)


def test_translate_exponential_norm(exp1):
    eta = constant_history(exp1)
    out = right_translate(eta, 1.0)
    assert out.norm(0) ** 2 == pytest.approx(math.exp(-1.0), abs=1e-3)
    assert out.norm(0) ** 2 <= math.exp(-1.0) * eta.norm(0) ** 2 * (1 + 1e-6)


def test_translate_semigroup_exact(exp1):
    rng = np.random.default_rng(31)
    eta = random_smooth_history(exp1, np.array([1.0, 4.0]), rng)
    t1 = 5 * exp1.ds
    t2 = 11 * exp1.ds
    a = right_translate(right_translate(eta, t2), t1)
    b = right_translate(eta, t1 + t2)
    assert np.array_equal(a.values, b.values)


def test_translate_decay_bound(exp1):
    rng = np.random.default_rng(37)
    for _ in range(10):
        eta = random_smooth_history(exp1, np.array([1.0, 4.0]), rng)
        t = float(rng.uniform(0.0, 5.0))
        lhs = right_translate(eta, t).norm(0) ** 2
        rhs = exp1.theta * math.exp(-exp1.delta_decay * t) * eta.norm(0) ** 2
        assert lhs <= rhs * (1 + 1e-6)


def test_translate_fractional_shift(exp1):
    eta = history_from_profile(exp1, scalar_lambdas(), lambda s: math.sin(s))
    out = right_translate(eta, 0.3 * exp1.ds)
    # interpolated shift stays close to the exact shifted profile away from
    # the first cell, where the field carries no data to interpolate from
    t = 0.3 * exp1.ds
    sel = eta.nodes > t + exp1.ds
    expect = np.sin(eta.nodes[sel] - t)
    assert np.allclose(out.values[sel, 0], expect, atol=1e-4)


# -- persistence ---------------------------------------------------------------

def test_csv_writers_format_every_value_as_17g(tmp_path, exp1):
    # the shared row writer gives the bytes of formatting value by value
    rows = np.array([[-0.0, 1e-300, 0.1, 3.0], [3.0, 0.1, 1e-300, -0.0]])
    lines = "".join(",".join("%.17g" % float(x) for x in row) + "\n" for row in rows)
    assert lines.startswith("-0,1e-300,0.10000000000000001,3\n")

    def body(path, skip):
        return "".join(open(path).readlines()[skip:])

    save_cloud_csv(PointCloud(rows), tmp_path / "cloud.csv")
    assert body(tmp_path / "cloud.csv", 1) == lines
    save_rows(tmp_path / "rows.csv", "a,b,c,d", [tuple(r) for r in rows])
    assert body(tmp_path / "rows.csv", 1) == lines
    lam = np.array([1.0])
    traj = Trajectory(times=rows[:, 0], u_snaps=rows[:, 1:2], v_snaps=rows[:, 2:3],
                      force_snaps=None,
                      initial_memory=None, window=1.0, framework="history",
                      dt=0.1, kernel_id="", lambdas=lam)
    save_trajectory_csv(traj, tmp_path / "traj.csv")
    want = "".join(",".join("%.17g" % float(x) for x in row[:3]) + "\n" for row in rows)
    assert body(tmp_path / "traj.csv", 1) == want


@pytest.mark.parametrize("case", ["specials", "one-row", "tuples", "cloud-width"])
def test_save_rows_writes_the_bytes_of_savetxt(tmp_path, case):
    # the row writer formats Python floats; np.savetxt, numpy scalars
    specials = [-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 3.0, -12.0,
                0.1, 2.0 ** 60]
    rows = {
        "specials": np.array([specials, specials[::-1]]),
        "one-row": np.array([specials]),
        "tuples": [tuple(specials[:4]), (1.0, 2.0, -0.0, 7.0)],
        "cloud-width": np.random.default_rng(5).normal(size=(2, 2320)) * 1e3,
    }[case]
    header = "# label=t=1 norm=H0" if case == "cloud-width" else "a,b,c"
    save_rows(tmp_path / "got.csv", header, rows)
    np.savetxt(tmp_path / "want.csv", rows, fmt="%.17g", delimiter=",", header=header,
               comments="")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
