"""Cross-module property checks tying several surfaces together."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from support import (
    direct_bridge,
    direct_history_force,
    direct_state_force,
    direct_xi,
    dissipation_integral_probe,
    holder_growth_probe,
    invariance_residual,
    piece_tables,
    random_smooth_history,
    right_translate,
    unflatten,
)

from memoryflow.attractors import (
    attraction_rate,
    cloud_from_states,
)
from memoryflow.evolution import (
    BLOCK,
    MemoryForce,
    Trajectory,
    integrate,
    integrate_ensemble,
    reconstruct_xi,
    sample_times,
)
from memoryflow.kernels import (
    MemoryKernel,
    make_exponential_kernel,
    make_flatzone_kernel,
    make_tabulated_kernel,
    split_sets,
)
from memoryflow.spaces import (
    ExtendedVector,
    HistoryField,
    ModalVector,
    StateField,
    big_l_map,
    lambda_map_pointwise,
    norm_H,
)
from memoryflow.viscoelastic import (
    assemble,
    draw_random_state,
    lk_split,
    make_model,
)


@pytest.fixture(scope="module")
def exp1():
    return make_exponential_kernel(1.0)


def test_mass_partition_with_field(exp1):
    # the dissipative/non-dissipative split partitions the weighted mass of
    # an arbitrary history field exactly
    flat = make_flatzone_kernel()
    for ker in (exp1, flat):
        eta = random_smooth_history(ker, np.array([1.0, 4.0]),
                                    np.random.default_rng(3))
        p_mask, n_mask = split_sets(ker, 0.5, eta.nodes)
        lamw = eta.lambdas ** (-1.0)
        contrib = eta.weights * (eta.values ** 2 @ lamw)
        part = float(np.sum(contrib[p_mask]) + np.sum(contrib[n_mask]))
        assert part == pytest.approx(eta.norm(0) ** 2, rel=1e-14)


def test_bridge_ratio_reported_for_flatzone():
    # the constant history is extremal for every jump-free kernel (the
    # bridged field is exactly mu), so the discrete ratio sits at 1 plus a
    # quadrature excess; mu' is discontinuous at the plateau edges, making
    # that excess first order in the grid spacing, which is reported and
    # checked to decay rather than asserted below a fixed bound
    lam = np.array([1.0])
    excesses = []
    for ds in (0.02, 0.01):
        flat = make_flatzone_kernel(ds=ds)
        eta = HistoryField.zeros(flat, lam)
        eta.values[:] = 1.0
        z = ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam), eta)
        ratio = norm_H(big_l_map(z, flat), 0) / norm_H(z, 0)
        excesses.append(ratio - 1.0)
    assert excesses[1] < 3e-3
    assert excesses[1] == pytest.approx(0.5 * excesses[0], rel=0.1)


def test_holder_two_scale_consistency(exp1):
    # cubic nonlinearity, small data: the fitted growth rate is stable when
    # the initial separation halves, consistent with a Lipschitz (unit
    # exponent) continuity estimate
    model = make_model(3, f="cubic")
    ops = assemble(model, exp1)
    base = draw_random_state(model, exp1, 0.5, "H0", np.random.default_rng(5))
    direction = draw_random_state(model, exp1, 1.0, "H0",
                                  np.random.default_rng(6))
    rates = []
    for eps in (1e-3, 5e-4):
        z2 = base.copy()
        z2.u.coeffs = base.u.coeffs + eps * direction.u.coeffs
        fit = holder_growth_probe(base, z2, ops, exp1, "history", 6.0, 5e-3,
                                  n_samples=12)
        assert not fit.degenerate
        rates.append(fit.rate)
    assert abs(rates[0] - rates[1]) < 0.1 * max(1.0, abs(rates[0]))


def test_invariance_tail_window_study(exp1):
    # tail samples of a decaying trajectory: the deeper the tail, the
    # smaller the invariance defect of the sampled set
    model = make_model(2, f="zero")
    ops = assemble(model, exp1)
    lam = model.lambdas
    z0 = ExtendedVector(ModalVector(np.array([1.0, -0.6]), lam),
                        ModalVector.zeros(lam), HistoryField.zeros(exp1, lam))
    dt = 5e-3
    traj = integrate(z0, ops, exp1, "history", dt, 40.0)

    def stepper(points, t):
        out = np.empty_like(points)
        for i, row in enumerate(points):
            z = unflatten(row, template, memory_stride=4)
            adv = integrate(z, ops, exp1, "history", dt, t)
            out[i] = cloud_from_states([adv.state_at(t, exp1)], memory_stride=4).points[0]
        return out

    residuals = []
    for t_burn in (10.0, 20.0, 30.0):
        states = [traj.state_at(t_burn + k, exp1) for k in range(8)]
        cloud = cloud_from_states(states, label="tail", memory_stride=4)
        template = states[0].memory
        residuals.append(invariance_residual(cloud, stepper, 2.0))
    assert residuals[0] > residuals[1] > residuals[2]


def test_nondissipative_mass_inequality(exp1):
    # N_delta[eta] <= -(1/delta) * int mu' ||eta||^2_{-1} for arbitrary eta
    from memoryflow.viscoelastic import dissipation_rhs
    flat = make_flatzone_kernel()
    rng = np.random.default_rng(9)
    for ker in (exp1, flat):
        for delta in (0.25, 0.5):
            eta = random_smooth_history(ker, np.array([1.0, 4.0]), rng)
            _, n_mask = split_sets(ker, delta, eta.nodes)
            lamw = eta.lambdas ** (-1.0)
            contrib = eta.weights * (eta.values ** 2 @ lamw)
            n_part = float(np.sum(contrib[n_mask]))
            z = ExtendedVector(ModalVector.zeros(eta.lambdas),
                               ModalVector.zeros(eta.lambdas), eta)
            bound = -dissipation_rhs(z, 0.0, ker) / delta
            assert n_part <= bound * (1 + 1e-12)


def test_compactness_functional_decays_along_run(exp1):
    # reconstructed histories of a decaying linear run have a decaying
    # tail-and-derivative functional; late tail states stay bounded
    from memoryflow.evolution import reconstruct_eta
    from support import h_functional
    model = make_model(2, f="zero")
    ops = assemble(model, exp1)
    lam = model.lambdas
    z0 = ExtendedVector(ModalVector(np.array([1.0, -0.5]), lam),
                        ModalVector(np.array([0.3, 0.2]), lam),
                        HistoryField.zeros(exp1, lam))
    traj = integrate(z0, ops, exp1, "history", 5e-3, 30.0)
    vals = [h_functional(reconstruct_eta(traj, t, exp1))
            for t in (2.0, 10.0, 20.0, 30.0)]
    assert all(np.isfinite(v) for v in vals)
    assert vals[0] > vals[1] > vals[2] > vals[3]
    assert vals[3] < 1e-4 * vals[0]


def test_gamma_equivalence_window(exp1):
    # E_sigma + eps*Phi stays within the quarter-to-quadruple norm window up
    # to a bounded additive constant along a forced nonlinear run
    from support import gamma_functional
    g = np.zeros(3)
    g[0] = 0.4
    model = make_model(3, f="cubic", g=g)
    ops = assemble(model, exp1)
    z0 = draw_random_state(model, exp1, 1.0, "H1", np.random.default_rng(13))
    traj = integrate(z0, ops, exp1, "history", 5e-3, 15.0)
    worst = 0.0
    for t in np.arange(1.0, 15.0, 1.0):
        z = traj.state_at(t, exp1)
        gam = gamma_functional(z, 0.0, 0.05, 0.1, 0.5, model, exp1)
        nsq = norm_H(z, 0.0) ** 2
        worst = max(worst, 0.25 * nsq - gam, gam - 4.0 * nsq)
    assert worst < 5.0


def test_dissipation_probe_forced_equilibrium(exp1):
    model = make_model(2, f="zero", g=[0.4, -0.2])
    ops = assemble(model, exp1)
    lam = model.lambdas
    u_star = model.g / lam
    z0 = ExtendedVector(ModalVector(u_star, lam), ModalVector.zeros(lam),
                        HistoryField.zeros(exp1, lam))
    traj = integrate(z0, ops, exp1, "history", 1e-2, 12.0)
    assert dissipation_integral_probe(traj, 0.1) == 0.0


def test_decay_fit_stable_under_dt_halving(exp1):
    # trajectory-norm decay rate is insensitive to the time step
    model = make_model(2, f="zero")
    ops = assemble(model, exp1)
    lam = model.lambdas
    z0 = ExtendedVector(ModalVector(np.array([1.0, 0.5]), lam),
                        ModalVector.zeros(lam), HistoryField.zeros(exp1, lam))
    omegas = []
    for dt in (4e-3, 2e-3):
        traj = integrate(z0, ops, exp1, "history", dt, 30.0)
        ts = sample_times(30.0, dt, 40)
        ts = ts[ts >= 2.0]
        ns = np.array([norm_H(traj.state_at(t, exp1), 0) for t in ts])
        fit = attraction_rate(np.column_stack([ts, ns]))
        omegas.append(fit.omega)
        assert fit.omega > 0
    assert abs(omegas[0] - omegas[1]) < 0.02 * omegas[0] + 1e-4


# -- randomized properties -----------------------------------------------------
# derandomize keeps the examples, and so tier-1, the same on every run

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
UNIT = st.floats(-1.0, 1.0)


def modes(J):
    return arrays(float, J, elements=UNIT)


@st.composite
def extended_states(draw, kernel):
    """(u, v, eta) with eta(s) = a s^p exp(-b s) per mode, b >= 0."""
    lam = np.arange(1.0, draw(st.integers(1, 4)) + 1.0) ** 2
    u, v, a = (draw(modes(lam.size)) for _ in range(3))
    p, b = draw(st.integers(0, 2)), draw(st.floats(0.0, 2.0))
    eta = HistoryField.zeros(kernel, lam)
    eta.values[:] = np.outer(eta.nodes ** p * np.exp(-b * eta.nodes), a)
    return ExtendedVector(ModalVector(u, lam), ModalVector(v, lam), eta)


@PROPERTY
@given(data=st.data(), iota=st.sampled_from([0, 1]))
def test_bridge_map_does_not_increase_norm(exp1, data, iota):
    # the tolerance of acceptance criterion 2
    z = data.draw(extended_states(exp1))
    assert norm_H(big_l_map(z, exp1), iota) <= (1.0 + 1e-6) * norm_H(z, iota)


COARSE = make_exponential_kernel(1.0, ds=0.1)      # 231 nodes
COARSE_CUT = make_exponential_kernel(1.0, ds=0.1, s_max=0.2)   # a 20-step window at dt = 1e-2


@PROPERTY
@given(delta=st.floats(1.0, 5.0), length=st.floats(0.5, 2.0), shift=st.integers(0, 40),
       J=st.integers(1, 3), data=st.data())
def test_rank_one_bridge_matches_dense_product(delta, length, shift, J, data):
    # tau on the field's spacing, a whole number of cells past the grid:
    # an exponential kernel states its rate and takes the rank-one path, a
    # tabulated triangle (unit moment, certificate (1, 1/length)) the dense
    # one; both must give the dense product to 1e-12 of the sum of the
    # absolute terms
    lam = np.arange(1.0, J + 1.0) ** 2
    triangle = make_tabulated_kernel([0.0, length], [6.0 / length ** 2, 0.0],
                                     theta=1.0, delta_decay=1.0 / length)
    for kernel in (make_exponential_kernel(delta, ds=0.1), triangle):
        eta = HistoryField.zeros(kernel, lam)
        eta.values[:] = data.draw(arrays(float, eta.values.shape,
                                         elements=st.floats(-1e3, 1e3)))
        tau = kernel.grid + shift * kernel.ds
        assert (kernel.rate is not None) == (kernel is not triangle)
        w = -np.asarray(kernel.mu_prime(tau[:, None] + eta.nodes[None, :]))
        want = (w @ eta.values) * eta.ds
        scale = (np.abs(w) @ np.abs(eta.values)) * eta.ds
        np.testing.assert_allclose(lambda_map_pointwise(eta, kernel, tau), want,
                                   rtol=1e-12, atol=1e-12 * scale.max())


@PROPERTY
@given(values=arrays(float, (COARSE.grid.size, 2), elements=st.floats(-1e3, 1e3)),
       a=st.integers(0, 250), b=st.integers(0, 250))
def test_translation_semigroup_on_whole_cells(values, a, b):
    eta = HistoryField.zeros(COARSE, np.array([1.0, 4.0]))
    eta.values[:] = values
    ds = COARSE.ds
    twice = right_translate(right_translate(eta, a * ds), b * ds)
    once = right_translate(eta, (a + b) * ds)
    assert twice.values.tobytes() == once.values.tobytes()


@PROPERTY
@given(J=st.integers(1, 4), delta=st.floats(0.5, 2.0), data=st.data())
def test_lk_split_superposition(J, delta, data):
    # L + K = D to the bound of acceptance criterion 7, for any two cubic
    # runs under any exponential kernel
    kernel = make_exponential_kernel(delta)
    model = make_model(J, f="cubic", g=data.draw(modes(J)))
    lam = model.lambdas
    z1, z2 = (ExtendedVector(ModalVector(data.draw(modes(J)), lam),
                             ModalVector(data.draw(modes(J)), lam),
                             HistoryField.zeros(kernel, lam)) for _ in range(2))
    res = lk_split(z1, z2, model, kernel, 0.2, 1e-2)
    assert np.max(res.residual_rel) <= 1e-12


@PROPERTY
@given(E=st.integers(1, 4), J=st.integers(1, 6), f=st.sampled_from(["cubic", "zero"]),
       framework=st.sampled_from(["history", "state"]), full_window=st.booleans(),
       data=st.data())
def test_ensemble_rows_equal_solo_runs(E, J, f, framework, full_window, data):
    # cubic runs step one at a time; f = "zero" runs a block at a time
    # under COARSE's cutoff and steps one at a time under COARSE_CUT's
    # window of 20 steps; either way a row is bitwise the member run alone
    kernel = COARSE if full_window else COARSE_CUT
    model = make_model(J, f=f, g=data.draw(modes(J)))
    ops = assemble(model, kernel)
    lam = model.lambdas
    field = HistoryField if framework == "history" else StateField
    z0s = []
    for _ in range(E):
        mem = field.zeros(kernel, lam)
        if data.draw(st.booleans()):
            mem.values[:] = np.outer(np.exp(-mem.nodes), data.draw(modes(J)))
        z0s.append(ExtendedVector(ModalVector(data.draw(modes(J)), lam),
                                  ModalVector(data.draw(modes(J)), lam), mem))
    batch = integrate_ensemble(z0s, ops, kernel, framework, 1e-2, 0.3)
    for z0, traj in zip(z0s, batch):
        solo = integrate(z0, ops, kernel, framework, 1e-2, 0.3)
        for name in ("u_snaps", "v_snaps"):
            assert np.array_equal(getattr(traj, name), getattr(solo, name))


@st.composite
def broken_lines(draw):
    """An admissible broken-line kernel: 2-6 nodes, nonincreasing to 0 at the
    last, unit first moment, sometimes flat on its first segment.  mu(t + s)
    > 0 needs t < s_end, so theta = e and delta = 1/s_end certify it."""
    n = draw(st.integers(2, 6))
    s = np.concatenate([[0.0], np.cumsum(draw(arrays(float, n - 1,
                                                      elements=st.floats(0.05, 0.5))))])
    mu = np.sort(draw(arrays(float, n, elements=st.floats(0.1, 5.0))))[::-1]
    mu[-1] = 0.0
    if n > 2 and draw(st.booleans()):
        mu[1] = mu[0]
    return make_tabulated_kernel(s, mu, theta=math.e, delta_decay=1.0 / s[-1],
                                 normalize=True)


@PROPERTY
@given(kernel=broken_lines(), dt=st.sampled_from([2e-3, 1e-2]), W=st.integers(1, 80),
       seed=st.integers(0, 2 ** 16), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_tabulated_window_matches_direct_sum(kernel, dt, W, seed, scale):
    # the broken line rescaled to end at W dt, so windows of 1..80 steps,
    # shorter and longer than BLOCK, on runs two blocks past the window; a
    # broken line states no decay rate, so every window takes the blocked
    # products
    end = W * dt
    kernel = make_tabulated_kernel(kernel.a * (end / kernel.end), kernel.c, theta=math.e,
                                   delta_decay=1.0 / end, normalize=True)
    lam = np.array([1.0, 4.0, 9.0])
    n_max = W + 2 * BLOCK + 8
    X = np.random.default_rng(seed).normal(size=(2, n_max + 1, lam.size))
    P = np.empty_like(X)
    P[:] = scale * X[:, :1]
    atol = 1e-14 * max(1.0, kernel.mass)
    for framework, direct in (("history", direct_history_force),
                              ("state", direct_state_force)):
        mf = MemoryForce(kernel, framework, dt, n_max)
        mf.set_initial_memory([HistoryField.zeros(kernel, lam)] * 2)
        for n in range(n_max + 1):
            want = direct(mf, n, X)
            for _ in range(2):
                np.testing.assert_allclose(mf.force(n, X), want, rtol=1e-12, atol=atol)
        if framework == "history":
            # a constant trajectory: the blocked products read P - P(0),
            # which is exactly 0.0, so the force is too
            mf = MemoryForce(kernel, framework, dt, n_max)
            mf.set_initial_memory([HistoryField.zeros(kernel, lam)] * 2)
            assert mf._q is None
            F = np.array([mf.history_force(n, P) for n in range(n_max + 1)])
            assert np.all(F == 0.0)


# a falling line, a step down at s = 1 and a geometric piece to infinity,
# whose window of 240 steps at dt = 0.1 the run stops short of
LINE_THEN_TAIL = MemoryKernel([0.0, 1.0], [1.0, 0.5], [0.0, 1.0], [-0.3, 0.0],
                              jumps=[(1.0, 0.2)], theta=math.e * (1 + 1e-9),
                              delta_decay=1.0, kernel_id="line_then_tail")


@settings(derandomize=True, deadline=None, max_examples=10)
@given(kernel=piece_tables(), dt=st.sampled_from([0.05, 0.1]), seed=st.integers(0, 2 ** 16))
@example(kernel=LINE_THEN_TAIL, dt=0.1, seed=5)
def test_memory_force_on_piece_tables_matches_direct_sum(kernel, dt, seed):
    # mixed tables of geometric and linear pieces with stepped breaks, in
    # both frameworks; a run of 100 steps outlasts the window of each drawn
    # table that ends before 100 dt, and stops inside that of LINE_THEN_TAIL
    lam = np.array([1.0, 4.0, 9.0])
    n_max = 100
    X = np.random.default_rng(seed).normal(size=(2, n_max + 1, lam.size))
    P = np.empty_like(X)
    P[:] = X[:, :1]
    atol = 1e-14 * max(1.0, kernel.mass)
    for framework, direct in (("history", direct_history_force),
                              ("state", direct_state_force)):
        mf = MemoryForce(kernel, framework, dt, n_max)
        mf.set_initial_memory([HistoryField.zeros(kernel, lam)] * 2)
        for n in range(n_max + 1):
            np.testing.assert_allclose(mf.force(n, X), direct(mf, n, X),
                                       rtol=1e-12, atol=atol)
    mf = MemoryForce(kernel, "history", dt, n_max)
    mf.set_initial_memory([HistoryField.zeros(kernel, lam)] * 2)
    F = np.array([mf.history_force(n, P) for n in range(n_max + 1)])
    assert np.all(F == 0.0)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(kernel=piece_tables(), dt=st.sampled_from([0.02, 0.03]), seed=st.integers(0, 2 ** 16))
@example(kernel=LINE_THEN_TAIL, dt=0.03, seed=5)
@example(kernel=make_exponential_kernel(2.0), dt=0.03, seed=6)
def test_readback_and_bridge_map_on_piece_tables_match_direct_sums(kernel, dt, seed):
    # the state read-back of 40 random snapshots over a nonzero xi0, and the
    # bridge map of a random smooth history on the grid and off it, against
    # sums of one term per snapshot or node; a table states a rate only as
    # one geometric piece to infinity, so most draws take the dense paths,
    # and e^(-2s) takes the rank-one ones
    lam = np.array([1.0, 4.0, 9.0])
    rng = np.random.default_rng(seed)
    xi0 = StateField.zeros(kernel, lam)
    xi0.values[:] = np.outer(kernel.mu_grid * np.cos(xi0.nodes), [1.0, -0.5, 0.2])
    n = 40
    traj = Trajectory(times=np.arange(n + 1) * dt, u_snaps=np.zeros((n + 1, lam.size)),
                      v_snaps=rng.normal(size=(n + 1, lam.size)), initial_memory=xi0,
                      window=kernel.s_max, framework="state", dt=dt,
                      kernel_id=kernel.kernel_id, lambdas=lam)
    for idx in (0, 1, n):
        got, want = (f(traj, idx * dt, kernel) for f in (reconstruct_xi, direct_xi))
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12,
                                   atol=1e-15 * np.abs(want.values).max())
    eta = random_smooth_history(kernel, lam, rng)
    tau = np.concatenate([kernel.grid[::4], kernel.grid[2::9] + 0.3 * kernel.ds])
    want = direct_bridge(eta, kernel, tau)
    np.testing.assert_allclose(lambda_map_pointwise(eta, kernel, tau), want, rtol=1e-12,
                               atol=1e-13 * np.abs(want).max())
