import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from support import (
    dafermos_scan,
    flat_mass_scan,
    nec_pair_scan,
    oracle_points,
    piece_tables,
    record_kernel_calls,
)

from memoryflow.kernels import (
    MAX_GRID_NODES,
    KernelError,
    MemoryKernel,
    check_dafermos,
    check_nec,
    flatness_rate,
    make_exponential_kernel,
    make_flatzone_kernel,
    make_jump_exponential_kernel,
    make_tabulated_kernel,
    split_sets,
    truncated_kernel,
)


@pytest.fixture(scope="module")
def exp1():
    return make_exponential_kernel(1.0)


@pytest.fixture(scope="module")
def flat():
    return make_flatzone_kernel()


def test_exponential_closed_forms(exp1):
    # delta=1: mu(s) = exp(-s) and k(s) = exp(-s)
    s = np.array([0.0, 0.5, 1.0, 3.0])
    assert np.allclose(exp1.mu(s), np.exp(-s), rtol=1e-12)
    assert np.allclose(exp1.k(s), np.exp(-s), rtol=1e-12)
    assert exp1.k(0.0) == pytest.approx(1.0, abs=1e-12)
    assert exp1.first_moment == pytest.approx(1.0)


def test_exponential_grid_moment(exp1):
    # midpoint quadrature of s*mu over the grid should also be close to 1
    grid_fm = np.sum(exp1.grid * exp1.mu_grid) * exp1.ds
    assert grid_fm == pytest.approx(1.0, abs=1e-4)


def test_exponential_delta2_moment():
    k2 = make_exponential_kernel(2.0)
    # Gamma integral: int s * 4 exp(-2s) ds = 1
    assert k2.first_moment == pytest.approx(1.0)
    val, _ = quad(lambda s: s * 4.0 * np.exp(-2.0 * s), 0, 50)
    assert val == pytest.approx(1.0, abs=1e-10)
    assert k2.mass == pytest.approx(2.0, abs=1e-12)


def test_rejects_bad_delta():
    with pytest.raises(KernelError):
        make_exponential_kernel(0.0)
    with pytest.raises(KernelError):
        make_exponential_kernel(-1.0)


@pytest.mark.parametrize("jumps", [None, [(0.5, 0.3)]])
@pytest.mark.parametrize("delta", [1e155, 1.35e154, math.inf, math.nan])
def test_exponential_families_refuse_a_delta_whose_square_is_not_finite(delta, jumps):
    # c = delta^2 overflowed to inf, and the kernel's own arithmetic then
    # warned (invalid value, or overflow in the jump family) and failed
    # with a message about its grid
    with pytest.raises(KernelError, match=r"delta must be positive.*1\.34e154"):
        if jumps is None:
            make_exponential_kernel(delta)
        else:
            make_jump_exponential_kernel(delta, jumps)


def test_k_from_mu_tail_is_zero(exp1, flat):
    for ker in (exp1, flat):
        assert ker.k(ker.s_max) == 0.0
        assert ker.k(ker.s_max + 5.0) == 0.0


def test_k_from_mu_monotone(exp1, flat):
    s = np.linspace(0, 5, 200)
    for ker in (exp1, flat):
        vals = ker.k(s)
        assert np.all(np.diff(vals) <= 1e-15)


def test_flatzone_k_against_adaptive_quadrature(flat):
    # independent oracle: adaptive quadrature of mu over [1, s_max]
    oracle, err = quad(lambda y: float(flat.mu(y)), 1.0, flat.s_max,
                       points=[2.0], limit=200)
    assert err < 1e-10
    assert flat.k(1.0) == pytest.approx(oracle, abs=1e-8)


def test_nec_exponential_equality(exp1):
    res = check_nec(exp1, 1.0, 1.0)
    assert res.passed
    assert res.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_nec_exponential_family():
    for delta in (0.5, 1.0, 2.0):
        ker = make_exponential_kernel(delta)
        assert check_nec(ker, 1.0, delta).passed


def test_nec_flatzone(flat):
    assert not check_nec(flat, 1.0, 1.0).passed
    res = check_nec(flat, math.e, 1.0)
    assert res.passed
    # equality is attained on a whole region
    assert res.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_nec_flatzone_exhaustive_oracle(flat):
    # brute-force nested scan on a coarse grid, independent of check_nec
    grid = np.linspace(0.05, 10.0, 120)
    for theta, expect in ((1.0, False), (math.e, True)):
        ok = True
        worst = 0.0
        for t in grid:
            for s in grid:
                m_s = float(flat.mu(s))
                if m_s <= 0:
                    continue
                ratio = float(flat.mu(t + s)) * math.exp(t) / (theta * m_s)
                worst = max(worst, ratio)
                if ratio > 1.0 + 1e-9:
                    ok = False
        assert ok == expect
        # the exact sup covers every pair of the scan
        res = check_nec(flat, theta, 1.0)
        assert res.passed == expect
        assert res.worst_ratio >= worst * (1 - 1e-12)


def broken_line(delta=1.0):
    # mu through (0, 6), (0.25, 3), (0.5, 1.5), (1, 0), to unit first moment
    return make_tabulated_kernel([0.0, 0.25, 0.5, 1.0], [6.0, 3.0, 1.5, 0.0], theta=1.0,
                                 delta_decay=delta, normalize=True)


def test_nec_refuses_a_certificate_whose_exponential_overflows():
    # the grid scan's exp(delta t) overflowed, inf * 0 past the support made
    # NaN, and max() dropped those blocks: delta = 1e6 passed, worst ratio 0
    assert check_nec(broken_line(), 1.0, 10.0).worst_ratio > 1.0
    res = check_nec(broken_line(), 1.0, 1e6)
    assert not res.passed and res.worst_ratio == math.inf
    with pytest.raises(KernelError, match=r"decay certificate \(theta=1, delta=1e\+06\) "
                                          r"fails: worst ratio inf"):
        broken_line(1e6)


@pytest.mark.parametrize("delta", [0.0, -1.0])
def test_nec_refuses_a_delta_that_states_no_decay(exp1, delta):
    # with delta <= 0 it passed on exp1, as mu(t + s) <= mu(s) holds
    with pytest.raises(KernelError, match="delta must be positive"):
        check_nec(exp1, 1.0, delta)


@pytest.mark.parametrize("delta", [1e6, 1e30, 1e308])
@pytest.mark.parametrize("theta", [1.0, 1e308])
def test_nec_near_the_float_range_warns_of_nothing_and_fails(exp1, delta, theta):
    # RuntimeWarnings are errors in this suite
    for ker in (exp1, broken_line()):
        res = check_nec(ker, theta, delta)
        assert not res.passed and res.worst_ratio == math.inf


def test_nec_exact_values(exp1):
    # phi = log mu + delta*s is flat on exp1 at delta = 1 and on the broken
    # line falls at delta = 1, so the sup sits at t -> 0: ratio 1 / theta
    assert check_nec(exp1, 1.0, 1.0).worst_ratio == 1.0
    assert check_nec(broken_line(), 2.0, 1.0).worst_ratio == 0.5
    # exp1 at delta = 0.5: phi falls, with no rise anywhere
    assert check_nec(exp1, 1.0, 0.5).worst_ratio == 1.0
    # at delta = 10, phi rises from s = 0 to the stationary point of the
    # last segment, where mu = 1.5 - 3x (before scaling) meets 3/mu = delta:
    # x = 0.4, mu = 0.3, at s = 0.9
    want = 0.3 / 6.0 * math.exp(10.0 * 0.9)
    assert check_nec(broken_line(), 1.0, 10.0).worst_ratio == pytest.approx(want, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(kernel=piece_tables(), theta=st.floats(1.0, 5.0), delta=st.floats(0.05, 3.0))
def test_exact_checks_bound_their_grid_oracles(kernel, theta, delta):
    # the exact sup covers every pair the scan sees, so a scan that fails
    # makes the exact check fail; the pointwise and flatness facts are
    # read at the same points as the scans read them
    pts = oracle_points(kernel)
    exact = check_nec(kernel, theta, delta)
    scan = nec_pair_scan(kernel, theta, delta, pts)
    assert exact.worst_ratio >= scan * (1 - 1e-12)
    assert scan <= 1 + kernel.rtol or not exact.passed
    own = check_nec(kernel, kernel.theta, kernel.delta_decay)
    assert own.passed and kernel.nec_worst == own.worst_ratio
    assert check_dafermos(kernel, delta) == dafermos_scan(kernel, delta, pts)
    flat_c = np.sum(kernel.c[(kernel.r == 0) & (kernel.beta == 0)])
    assert flatness_rate(kernel) == pytest.approx(
        flat_mass_scan(kernel), abs=kernel.ds * flat_c / kernel.mass + 1e-12)


def test_exact_checks_evaluate_mu_at_no_pair_grid(exp1, monkeypatch):
    # the grid scan evaluated mu at about 400 x 400 pairs per check
    calls = record_kernel_calls(exp1, monkeypatch)
    check_nec(exp1, 1.0, 1.0)
    check_dafermos(exp1, 1.0)
    flatness_rate(exp1)
    points = sum(math.prod(shape) for shape in calls["mu"] + calls["mu_prime"])
    assert points <= exp1.a.size + exp1.grid.size


def test_nec_compact_support():
    # finite delay: mu = 6(1-s) on [0,1], unit first moment
    ker = make_tabulated_kernel([0.0, 1.0], [6.0, 0.0], theta=1.0, delta_decay=1.0)
    assert ker.first_moment == pytest.approx(1.0, abs=1e-12)
    # pairs with t+s > 1 have zero left side; certificate holds for any theta
    for theta in (1.0, 2.0, 10.0):
        assert check_nec(ker, theta, 1.0).passed


def test_dafermos(exp1, flat):
    assert check_dafermos(exp1, 1.0)
    assert not check_dafermos(exp1, 2.0)
    for delta in (0.1, 0.5, 1.0, 2.0):
        assert not check_dafermos(flat, delta)


def test_dafermos_implies_nec(exp1):
    # theta=1 case of domination follows from the pointwise condition
    for ker, delta in ((exp1, 1.0), (make_exponential_kernel(0.5), 0.5)):
        assert check_dafermos(ker, delta)
        assert check_nec(ker, 1.0, delta).passed


def test_flatness_exponential(exp1):
    assert flatness_rate(exp1) == 0.0


def test_flatness_flatzone(flat):
    # plateau mass / k(0), oracle by direct integral over [1, 2]
    plateau, _ = quad(lambda y: float(flat.mu(y)), 1.0, 2.0)
    expect = plateau / flat.mass
    assert flatness_rate(flat) == pytest.approx(expect, abs=1e-8)
    # closed form: exp(-1) / (1 + exp(-1))
    assert flatness_rate(flat) == pytest.approx(1.0 / (1.0 + math.e), abs=1e-8)


def test_flatness_constant_kernel():
    # constant on the support: inadmissible for simulation but valid input
    # one linear piece of slope 0: 0.5 on [0, 2], certified by theta = e^2
    ker = MemoryKernel([0.0], 0.5, 0.0, 0.0, end=2.0, theta=math.exp(2.0),
                       delta_decay=1.0, kernel_id="constant")
    assert flatness_rate(ker) == pytest.approx(1.0, abs=1e-12)


def test_truncated_exponential(exp1):
    s_nu, mu_nu = truncated_kernel(exp1, 0.2)
    # root of 1 - exp(-s) = 0.1
    assert s_nu == pytest.approx(-math.log(0.9), abs=exp1.ds)
    assert float(mu_nu(0.001)) == pytest.approx(float(exp1.mu(s_nu)), rel=1e-12)
    assert float(mu_nu(2.0)) == pytest.approx(float(exp1.mu(2.0)), rel=1e-12)


def test_truncated_flatzone_bisection_oracle(flat):
    s_nu, _ = truncated_kernel(flat, 0.2)
    oracle = brentq(lambda x: quad(lambda y: float(flat.mu(y)), 0, x)[0] - 0.1,
                    1e-6, 5.0)
    assert s_nu == pytest.approx(oracle, abs=2 * flat.ds)


def test_truncated_small_limit(exp1):
    s_prev = math.inf
    for nu in (0.2, 0.05, 0.01):
        s_nu, mu_nu = truncated_kernel(exp1, nu)
        assert s_nu < s_prev or s_nu == exp1.grid[0]
        s_prev = s_nu
    # mu_nu -> mu pointwise away from zero
    s = np.linspace(0.05, 3, 50)
    assert np.allclose(mu_nu(s), exp1.mu(s), rtol=1e-10)


def test_truncated_too_large(exp1):
    with pytest.raises(KernelError, match="truncation exceeds kernel mass"):
        truncated_kernel(exp1, 2.5)


def test_split_sets(exp1, flat):
    p, n = split_sets(exp1, 0.5)
    assert not p.any() and n.all()
    p, n = split_sets(exp1, 2.0)
    assert p.all() and not n.any()
    p, _ = split_sets(flat, 0.5)
    plateau = (flat.grid >= 1.0) & (flat.grid < 2.0)
    assert np.all(p[plateau])


def test_split_partition_of_mass(flat):
    p, n = split_sets(flat, 0.5)
    total = np.sum(flat.mu_grid) * flat.ds
    split_total = np.sum(flat.mu_grid[p]) * flat.ds + np.sum(flat.mu_grid[n]) * flat.ds
    assert split_total == pytest.approx(total, rel=1e-14)


def test_d_const(exp1, flat):
    # the smallest D on the grid with k(s) <= D*mu(s)
    def d_const(ker):
        pos = ker.mu_grid > 0
        return float(np.max(ker.k(ker.grid[pos]) / ker.mu_grid[pos]))
    assert d_const(exp1) == pytest.approx(1.0, rel=1e-9)
    assert d_const(flat) >= 1.0
    g = flat.grid
    assert np.all(flat.k(g) <= d_const(flat) * flat.mu_grid * (1 + 1e-12))


def test_nu_and_necnu(exp1, flat):
    rng = np.random.default_rng(7)
    for ker in (exp1, flat):
        taus = rng.uniform(0.5, 8.0, size=200)
        ss = rng.uniform(0.0, 1.0, size=200) * taus
        lhs = ker.nu(taus - ss)
        rhs = ker.theta * np.exp(-ker.delta_decay * ss) * ker.nu(taus)
        ok = ker.nu(taus) > 0
        assert np.all(lhs[ok] <= rhs[ok] * (1 + 1e-9))


def test_nu_zero_where_mu_zero():
    ker = make_tabulated_kernel([0.0, 1.0], [6.0, 0.0], theta=1.0, delta_decay=1.0)
    assert float(ker.nu(2.0)) == 0.0
    assert float(ker.nu(0.5)) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_jump_kernel_structure():
    ker = make_jump_exponential_kernel(1.0, [(1.0, 0.5)])
    assert ker.has_jumps
    s_n, amp = ker.jumps[0]
    assert s_n == 1.0
    left = float(ker.mu(1.0 - 1e-9))
    right = float(ker.mu(1.0))
    assert amp == pytest.approx(left - right, rel=1e-6)
    assert ker.first_moment == pytest.approx(1.0)
    assert check_nec(ker, ker.theta, 1.0).passed


def test_admissibility_report_fields(exp1):
    # a built kernel is admissible and keeps its certificate's worst ratio
    assert exp1.nec_worst == 1.0
    assert exp1.mass == pytest.approx(1.0, abs=1e-10)


def test_a_break_that_steps_up_is_refused():
    # exp(-s) on [0, 1), then 0.5 exp(-(s - 1)): a step up from e^-1 at s = 1
    with pytest.raises(KernelError, match="mu is not nonincreasing"):
        MemoryKernel([0.0, 1.0], [1.0, 0.5], 1.0, 0.0, theta=10.0, delta_decay=1.0)


def test_increasing_table_rejected():
    with pytest.raises(KernelError):
        make_tabulated_kernel([0.0, 1.0, 2.0], [1.0, 2.0, 0.0],
                              theta=1.0, delta_decay=1.0)


def test_negative_table_abscissa_rejected():
    # it used to fail later, as "mu must be finite and nonnegative on the grid"
    with pytest.raises(KernelError, match=r"start at s = -0\.5, but mu lives on s >= 0"):
        make_tabulated_kernel([-0.5, 1.0], [2.0, 0.0], theta=1.0, delta_decay=1.0)


@pytest.mark.parametrize("pieces,what", [
    (dict(a=[0.5], c=1.0, r=1.0, beta=0.0), "rise strictly from 0"),
    (dict(a=[0.0, 1.0, 1.0], c=1.0, r=1.0, beta=0.0), "rise strictly from 0"),
    (dict(a=[0.0, 2.0], c=1.0, r=0.0, beta=0.0, end=1.0), "at or after the last"),
    (dict(a=[0.0], c=1.0, r=0.0, beta=0.0), "only a geometric one"),
    (dict(a=[0.0], c=1.0, r=1.0, beta=-0.1), "geometric"),
    (dict(a=[0.0], c=1.0, r=-1.0, beta=0.0, end=1.0), "geometric"),
    (dict(a=[0.0], c=1.0, r=1.0, beta=0.0, s_max=0.004),
     r"s_max = 0\.004 must exceed ds/2 = 0\.005, or the quadrature grid is empty"),
    # s_max/ds, or the tail bound over ds, used to raise an OverflowError
    (dict(a=[0.0], c=1.0, r=1.0, beta=0.0, s_max=1e308),
     r"s_max = 1e\+308 over ds = 0\.01 is not a finite number of grid nodes"),
    (dict(a=[0.0], c=1.0, r=1.0, beta=0.0, ds=1e-308),
     r"s_max = 23\.0259 over ds = 1e-308 is not a finite number of grid nodes"),
    # one node passed every check, and a ds past the cutoff raised s_max to
    # ds, where the window overflowed on s_max/dt
    (dict(a=[0.0], c=1.0, r=1.0, beta=0.0, ds=1e308),
     r"ds = 1e\+308 leaves one quadrature node below s_max = 1e\+308"),
    (dict(a=[0.0], c=1.0, r=1.0, beta=0.0, ds=30.0),
     r"ds = 30 leaves one quadrature node below s_max = 30"),
    (dict(a=[0.0], c=1.0, r=1.0, beta=0.0, s_max=0.014),
     r"ds = 0\.01 leaves one quadrature node below s_max = 0\.014")],
    ids=["start", "repeat", "end", "linear-to-inf", "geometric-slope", "negative-r",
         "empty-grid", "s_max-overflow", "ds-overflow", "one-node-ds-1e308",
         "one-node-ds-30", "one-node-s_max"])
def test_malformed_piece_table_rejected(pieces, what):
    with pytest.raises(KernelError, match=what):
        MemoryKernel(**pieces, theta=1.0, delta_decay=1.0)


@pytest.mark.parametrize("s_max", [1e15, 1e20], ids=["1e15", "1e20"])
def test_grid_over_the_node_budget_allocates_nothing(s_max):
    # finite but huge node counts: 1e17 nodes would ask for about 8e17
    # bytes, and 1e22 made np.arange raise "Maximum allowed size exceeded"
    tracemalloc.start()
    try:
        with pytest.raises(KernelError, match=re.escape(
                "s_max = %g over ds = 0.01 is %g grid nodes, more than the budget of %d"
                % (s_max, s_max / 0.01, MAX_GRID_NODES))):
            MemoryKernel([0.0], 1.0, 1.0, 0.0, theta=1.0, delta_decay=1.0, s_max=s_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_nec_scan_memory():
    # the t rows are scanned 64 at a time: one 461 x 461 block of pair
    # temporaries used to take the peak of an exp1 build to 5.3 MB
    make_exponential_kernel(1.0)
    tracemalloc.start()
    try:
        make_exponential_kernel(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_tabulated_exponential_close_to_analytic():
    s = np.linspace(0, 20, 4001)
    ker = make_tabulated_kernel(s, np.exp(-s), theta=1.05, delta_decay=0.9,
                                normalize=True)
    # normalization keeps the shape, first moment becomes exactly 1
    assert ker.first_moment == pytest.approx(1.0, abs=1e-12)
    ratio = float(ker.mu(1.0)) / float(ker.mu(2.0))
    assert ratio == pytest.approx(math.e, rel=1e-4)


# kernel, piece edges (where mu or mu' may break), delta of an exponential
PIECEWISE = {
    "exp1": (lambda: make_exponential_kernel(1.0), [], 1.0),
    "exp3": (lambda: make_exponential_kernel(3.0), [], 3.0),
    "flatzone": (make_flatzone_kernel, [1.0, 2.0], None),
    "jump2": (lambda: make_jump_exponential_kernel(1.5, [(2.0, 0.3), (0.8, 0.4)]),
              [0.8, 2.0], None),
    "tabulated": (lambda: make_tabulated_kernel([0.5, 1.0, 2.0, 3.0], [4.0, 2.0, 1.0, 0.5],
                                                theta=math.e, delta_decay=1.0 / 3.0,
                                                normalize=True),
                  [0.5, 1.0, 2.0, 3.0], None),
}


@pytest.mark.parametrize("name", sorted(PIECEWISE))
def test_piecewise_families_against_quadrature(name):
    # each family is a piece table: its closed forms against quad, finite
    # differences and the left limits at its jumps
    build, edges, delta = PIECEWISE[name]
    ker = build()
    mu = lambda y: float(ker.mu(y))
    for s in (0.0, 0.3, 0.8, 1.5, 2.5, 4.0):
        if s >= ker.s_max:
            continue
        inside = [e for e in edges if s < e < ker.s_max]
        oracle, err = quad(mu, s, ker.s_max, points=inside or None, limit=200,
                           epsabs=1e-13, epsrel=1e-12)
        assert err < 1e-11
        assert float(ker.k(s)) == pytest.approx(oracle, rel=1e-9, abs=1e-9)
    assert ker.first_moment == pytest.approx(1.0, abs=1e-12)
    moment, _ = quad(lambda y: y * mu(y), 0.0, ker.s_max, limit=200, epsabs=1e-13,
                     points=[e for e in edges if e < ker.s_max] or None)
    assert moment == pytest.approx(1.0, abs=1e-8)
    s = np.linspace(0.05, min(ker.s_max, 6.0) - 0.05, 300)
    s = s[np.all(np.abs(s[:, None] - np.array(edges + [0.0])) > 1e-3, axis=1)]
    h = 1e-6
    central = (ker.mu(s + h) - ker.mu(s - h)) / (2 * h)
    assert np.allclose(ker.mu_prime(s), central, rtol=1e-6, atol=1e-8)
    assert len(ker.jumps) == (2 if name == "jump2" else 0)
    for s_n, amp in ker.jumps:
        left = float(ker.mu(np.nextafter(s_n, 0.0)))
        assert amp == pytest.approx(left - mu(s_n), rel=1e-12)
    assert ker.rate == delta
    if name == "tabulated":
        # the last sample's value holds at s_end itself, and zero past it
        scale = mu(0.5) / 4.0
        assert mu(0.2) == mu(0.5)
        assert mu(3.0) == pytest.approx(0.5 * scale, rel=1e-15)
        assert mu(np.nextafter(3.0, 4.0)) == 0.0
        assert float(ker.mu_prime(3.0)) == 0.0


@pytest.mark.parametrize("name", sorted(PIECEWISE) + ["jump2-delta1", "tabulated-raw"])
def test_public_pieces_rebuild_the_kernel(name):
    # the pieces are the kernel: read back with normalize=False, they give
    # every closed form bit for bit
    extra = {"jump2-delta1": lambda: make_jump_exponential_kernel(
                 1.0, [(1.0, 0.5), (2.5, 0.3)]),
             "tabulated-raw": lambda: make_tabulated_kernel(
                 [0.0, 1.0], [6.0, 0.0], theta=1.0, delta_decay=1.0)}
    ker = (extra.get(name) or PIECEWISE[name][0])()
    again = MemoryKernel(ker.a, ker.c, ker.r, ker.beta, end=ker.end, jumps=ker.jumps,
                         normalize=False, theta=ker.theta, delta_decay=ker.delta_decay,
                         s_max=ker.s_max, ds=ker.ds, rtol=ker.rtol)
    g = ker.grid
    for got, want in ((again.mu_grid, ker.mu_grid), (again.k(g), ker.k(g)),
                      (again.mu_prime(g), ker.mu_prime(g))):
        assert np.array_equal(got, want)
    assert again.first_moment == ker.first_moment
    assert again.rate == ker.rate
    assert again.jumps == ker.jumps
