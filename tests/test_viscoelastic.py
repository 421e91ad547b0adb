import json
import math
import re

import numpy as np
import pytest

from memoryflow.kernels import (
    KernelError,
    make_exponential_kernel,
    make_flatzone_kernel,
    make_jump_exponential_kernel,
    split_sets,
    truncated_kernel,
)
from memoryflow.spaces import (
    ExtendedVector,
    HistoryField,
    ModalVector,
    norm_H,
)
from memoryflow import viscoelastic
from memoryflow.evolution import (
    MemoryForce,
    Trajectory,
    integrate,
    integrate_ensemble,
    reconstruct_eta,
)
from memoryflow.viscoelastic import (
    CollocationTransform,
    assemble,
    condition_asso_probe,
    dissipation_rhs,
    draw_random_state,
    energy_sigma,
    f_modal,
    hypothesis_probe_suite,
    lk_split,
    load_g_csv,
    load_model_file,
    make_model,
    phi_functional,
)

from support import (
    direct_history_force,
    dissipation_integral_probe,
    gamma_functional,
    history_from_profile,
    phi_control_ratio,
)


@pytest.fixture(scope="module")
def exp1():
    return make_exponential_kernel(1.0)


def zero_state(model, kernel):
    lam = model.lambdas
    return ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam),
                          HistoryField.zeros(kernel, lam))


# -- model construction and assembly ------------------------------------------

def test_default_eigenvalues():
    model = make_model(4, f="zero")
    assert np.array_equal(model.lambdas, [1.0, 4.0, 9.0, 16.0])


def test_given_eigenvalues_must_number_J():
    make_model(3, f="zero", lambdas=[1.0, 2.0, 5.0])
    with pytest.raises(ValueError, match="J = 2, but 3 eigenvalues"):
        make_model(2, f="zero", lambdas=[1.0, 2.0, 5.0])
    with pytest.raises(ValueError, match="J = 4, but 3 eigenvalues"):
        make_model(4, f="zero", lambdas=[1.0, 2.0, 5.0])


@pytest.mark.parametrize("f", ["cubic", "cubic_minus_linear"])
def test_given_eigenvalues_refuse_a_nonlinear_f(f):
    # f is collocated on the interval's sines, whatever the eigenvalues
    with pytest.raises(ValueError, match="f = '%s'.*domain" % f):
        make_model(4, f=f, beta=0.5, lambdas=[2.0, 5.0, 5.0, 8.0])


def test_beta_must_be_subcritical():
    make_model(4, f="cubic_minus_linear", beta=0.5)
    with pytest.raises(ValueError):
        make_model(4, f="cubic_minus_linear", beta=1.0)


def test_growth_constant():
    # |f''(u)| = |6u| <= 6(1 + |u|) for the cubic selectors
    model = make_model(4, f="cubic")
    assert model.f_growth_c == 6.0
    us = np.linspace(-5, 5, 101)
    assert np.all(np.abs(6 * us) <= model.f_growth_c * (1 + np.abs(us)))


def test_f_zero_at_origin(exp1):
    for f in ("zero", "cubic"):
        model = make_model(4, f=f)
        assert np.all(f_modal(model, np.zeros(4)) == 0.0)
    model = make_model(4, f="cubic_minus_linear", beta=0.5)
    assert np.all(f_modal(model, np.zeros(4)) == 0.0)


def test_assemble_rejects_jump_kernel():
    ker = make_jump_exponential_kernel(1.0, [(1.0, 0.3)])
    model = make_model(2, f="zero")
    with pytest.raises(KernelError, match="jump-free"):
        assemble(model, ker)


def test_assemble_rejects_flatzone():
    model = make_model(2, f="zero")
    with pytest.raises(KernelError, match="flat"):
        assemble(model, make_flatzone_kernel())


def test_cubic_projection_trig_identity(exp1):
    # sin^3 x = (3 sin x - sin 3x)/4: only modes 1 and 3, ratio -1/3
    model = make_model(6, f="cubic")
    a = 0.7
    u = np.zeros(6)
    u[0] = a
    fu = f_modal(model, u)
    # e_1 = sqrt(2/pi) sin x, so u^3 = a^3 (2/pi)^{3/2} sin^3 x
    c1_expect = a ** 3 * (2 / math.pi) ** 1.5 * 0.75 * math.sqrt(math.pi / 2)
    assert fu[0] == pytest.approx(c1_expect, rel=1e-12)
    assert fu[2] == pytest.approx(-c1_expect / 3.0, rel=1e-12)
    others = np.delete(fu, [0, 2])
    assert np.max(np.abs(others)) < 1e-14


def test_collocation_roundtrip():
    tr = CollocationTransform(8)
    rng = np.random.default_rng(0)
    u = rng.normal(size=8)
    back = tr.to_modal(tr.to_physical(u))
    assert np.allclose(back, u, atol=1e-13)


def projected_cube(u, n_points):
    """Sine coefficients of u^3 on modes 1..J by the quadrature with weight
    pi/M on the points x_m = pi*m/M, m = 1..M-1, where M = n_points + 1."""
    M = n_points + 1
    x = math.pi * np.arange(1, M) / M
    sines = math.sqrt(2.0 / math.pi) * np.sin(np.outer(x, np.arange(1, u.size + 1)))
    return (math.pi / M) * (sines.T @ (sines @ u) ** 3)


@pytest.mark.parametrize("J", [1, 2, 3, 8, 33, 128])
def test_collocation_grid_projects_the_cube_exactly(J):
    # u^3 reaches mode 3J; 2J points project it on modes 1..J exactly, and
    # the top modes are where too few points would alias first
    model = make_model(J, f="cubic")
    assert model.collocation.sines.shape == (2 * J, J)
    rng = np.random.default_rng(J)
    top = np.zeros(J)
    top[-1] = 1.0
    cases = [rng.standard_normal(J) / np.arange(1, J + 1), top]
    if J > 1:
        pair = top.copy()
        pair[-2] = 1.0
        cases.append(pair)
    for u in cases:
        want = projected_cube(u, 8 * J - 1)     # a grid four times as fine
        got = f_modal(model, u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_collocation_batch_rows_match_solo_calls():
    J, E = 128, 5
    model = make_model(J, f="cubic")
    U = np.random.default_rng(7).standard_normal((E, J)) / np.arange(1, J + 1)
    batch = f_modal(model, U)
    for e in range(E):
        assert np.array_equal(batch[e], f_modal(model, U[e]))


@pytest.mark.parametrize("J", [0, -2, True, False, 2.0, "3", None])
def test_make_model_refuses_a_bad_mode_count(J):
    with pytest.raises(ValueError, match="'J' must be an integer >= 1"):
        make_model(J, f="cubic")


def test_make_model_takes_a_numpy_mode_count():
    assert make_model(np.int64(3), f="zero").J == 3


def test_single_mode_reduction(exp1):
    # zero nonlinearity, one mode: matches the generic linear operator form
    model = make_model(1, f="zero")
    ops = assemble(model, exp1)
    assert ops.f is None
    dv = ops.accel(np.array([0.5]), np.array([0.1]))
    assert dv[0] == pytest.approx(-0.5 - 0.1)


def test_equilibrium_fixed_point(exp1):
    # f = 0, g != 0: u* = A^{-1} g is stationary, exactly preserved
    model = make_model(3, f="zero", g=[0.3, -0.5, 0.9])
    ops = assemble(model, exp1)
    u_star = model.g / model.lambdas
    dv = ops.accel(u_star, np.zeros(3))
    assert np.max(np.abs(dv)) == 0.0
    z0 = ExtendedVector(ModalVector(u_star, model.lambdas),
                        ModalVector.zeros(model.lambdas),
                        HistoryField.zeros(exp1, model.lambdas))
    traj = integrate(z0, ops, exp1, "history", 1e-2, 2.0)
    assert np.max(np.abs(traj.u_snaps - u_star[None, :])) < 1e-14
    assert np.max(np.abs(traj.v_snaps)) < 1e-14


# -- energies -------------------------------------------------------------------

def test_energy_zero_state(exp1):
    model = make_model(4, f="cubic")
    z = zero_state(model, exp1)
    for sigma in (0.0, 0.5, 1.0):
        assert energy_sigma(z, sigma, model) == 0.0


def test_energy_componentwise_linear(exp1):
    model = make_model(3, f="zero")
    rng = np.random.default_rng(5)
    z = draw_random_state(model, exp1, 1.0, "H0", rng)
    z.memory.values[:] = rng.normal(size=z.memory.values.shape) \
        * np.exp(-z.memory.nodes)[:, None]
    for sigma in (0.0, 0.5, 1.0):
        expect = norm_H(z, sigma) ** 2
        assert energy_sigma(z, sigma, model) == pytest.approx(expect, rel=1e-13)


def test_energy_equals_norm_sq_at_sigma0(exp1):
    model = make_model(3, f="zero")
    z = draw_random_state(model, exp1, 2.0, "H0", np.random.default_rng(8))
    assert energy_sigma(z, 0.0, model) == pytest.approx(norm_H(z, 0) ** 2,
                                                        rel=1e-13)


def test_draw_random_state_rejects_unknown_space(exp1):
    model = make_model(3, f="zero")
    with pytest.raises(ValueError, match="H2"):
        draw_random_state(model, exp1, 1.0, "H2", np.random.default_rng(8))


def test_energy_dissipation_identity(exp1):
    # linear run: the per-step discrete dE0/dt tracks the mu'-weighted
    # history mass; a coarser difference stencil would be polluted by the
    # startup curvature of E
    ds = 1e-3
    ker = make_exponential_kernel(1.0, ds=ds)
    model = make_model(2, f="zero")
    ops = assemble(model, ker)
    lam = model.lambdas
    # nonzero initial velocity, otherwise the dissipation rate is O(t^3)
    # and a relative comparison at step 10 is meaningless
    z0 = ExtendedVector(ModalVector(np.array([1.0, 0.3]), lam),
                        ModalVector(np.array([0.5, -0.7]), lam),
                        HistoryField.zeros(ker, lam))
    dt = 1e-3
    traj = integrate(z0, ops, ker, "history", dt, 0.2)
    E = np.empty(traj.n_steps + 1)
    R = np.empty(traj.n_steps + 1)
    for i in range(traj.n_steps + 1):
        z = traj.state_at(traj.times[i], ker)
        E[i] = energy_sigma(z, 0.0, model)
        R[i] = dissipation_rhs(z, 0.0, ker)
    dE = (E[2:] - E[:-2]) / (2 * dt)
    mid = R[1:-1]
    rel = np.abs(dE[9:] - mid[9:]) / np.abs(mid[9:])
    assert np.max(rel) < 0.05
    # and energy is nonincreasing
    assert np.all(np.diff(E) <= 1e-8 * E[0])


def test_phi_zero_state(exp1):
    model = make_model(3, f="cubic")
    z = zero_state(model, exp1)
    assert phi_functional(z, 0.0, 0.1, 0.5, model, exp1) == 0.0


def test_phi_empty_p_set(exp1):
    # exponential kernel with delta_split < delta: P empty, third term drops
    model = make_model(3, f="zero")
    rng = np.random.default_rng(12)
    z = draw_random_state(model, exp1, 1.0, "H0", rng)
    z.memory.values[:] = rng.normal(size=z.memory.values.shape) \
        * np.exp(-z.memory.nodes)[:, None]
    sigma, nu_small, d_split = 0.5, 0.1, 0.5
    phi = phi_functional(z, sigma, nu_small, d_split, model, exp1)
    # recompute the two surviving terms directly
    lam = model.lambdas
    mem = z.memory
    _, mu_nu = truncated_kernel(exp1, nu_small)
    lamw = lam ** (sigma - 1.0)
    t1 = -np.sum(np.asarray(mu_nu(mem.nodes)) *
                 (mem.values @ (lamw * z.v.coeffs))) * mem.ds
    t2 = (1 - 2 * nu_small) * np.sum(lam ** sigma * z.v.coeffs * z.u.coeffs)
    assert phi == pytest.approx(t1 + t2, rel=1e-12)


def test_phi_terms_against_quadrature_oracle(exp1):
    # delta_split > delta makes P the whole axis; each term is recomputed by
    # adaptive quadrature of the cellwise-constant integrand extension
    model = make_model(2, f="zero")
    lam = model.lambdas
    rng = np.random.default_rng(21)
    z = draw_random_state(model, exp1, 1.0, "H0", rng)
    mem = z.memory
    mem.values[:] = rng.normal(size=mem.values.shape) \
        * np.exp(-mem.nodes)[:, None]
    sigma, nu_small, d_split = 0.0, 0.2, 2.0
    p_mask, _ = split_sets(exp1, d_split, mem.nodes)
    assert p_mask.all()

    phi = phi_functional(z, sigma, nu_small, d_split, model, exp1)

    nodes, ds = mem.nodes, mem.ds
    lamw = lam ** (sigma - 1.0)
    _, mu_nu = truncated_kernel(exp1, nu_small)

    def cellwise(f_vals):
        # exact integral of the per-cell constant extension
        return float(np.sum(f_vals) * ds)

    t1 = -cellwise(np.asarray(mu_nu(nodes)) * (mem.values @ (lamw * z.v.coeffs)))
    t2 = (1 - 2 * nu_small) * float(np.sum(lam ** sigma * z.v.coeffs * z.u.coeffs))
    mu_vals = np.asarray(exp1.mu(nodes))
    kappa = np.cumsum((mu_vals * ds)[::-1])[::-1] - 0.5 * mu_vals * ds
    diff = mem.values - (lam * z.u.coeffs)[None, :]
    t3 = cellwise(kappa * (diff ** 2 @ lamw))
    assert phi == pytest.approx(t1 + t2 + t3, abs=1e-8)
    # with the full P set, kappa at the first node is close to k(0+)
    assert kappa[0] == pytest.approx(float(exp1.k(nodes[0])), abs=1e-3)


def test_phi_control_ratio_bounded(exp1):
    model = make_model(3, f="zero")
    rng = np.random.default_rng(31)
    ratios = []
    for _ in range(10):
        z = draw_random_state(model, exp1, 1.0, "H0", rng)
        z.memory.values[:] = rng.normal(size=z.memory.values.shape) \
            * np.exp(-z.memory.nodes)[:, None]
        ratios.append(phi_control_ratio(z, 0.0, 0.1, 0.5, model, exp1))
    assert max(ratios) < 50.0


@pytest.mark.parametrize("initial", ["zero", "profile"])
def test_functionals_of_a_blocked_state_are_those_of_its_field(initial):
    # state_at's field, held as a past block and a tail, against the same
    # eta^t with its values formed by reconstruct_eta: every functional that
    # reduces over the nodes gives the same bits, at t = 0, on a node,
    # between nodes and past s_max of exp1 cut at s_max = 1
    dt = 2.0 ** -6
    kernel = make_exponential_kernel(1.0, ds=2 * dt, s_max=1.0)
    model = make_model(3, f="cubic", g=[0.4, 0.0, -0.2])
    lam = model.lambdas
    z0s = [draw_random_state(model, kernel, 1.0, "H1", np.random.default_rng([9, e]))
           for e in range(2)]
    if initial == "profile":
        z0s[1].memory = history_from_profile(
            kernel, lam, lambda s: [math.sin(3.0 * s) + 0.5, math.exp(-s), 0.2])
    trajs = integrate_ensemble(z0s, assemble(model, kernel), kernel, "history", dt, 1.5)
    nodes = kernel.grid
    assert np.any(nodes == 3 * dt) and not np.any(nodes == 4 * dt) and nodes[-1] < 1.5
    for e, traj in enumerate(trajs):
        for t in (0.0, 3 * dt, 4 * dt, 0.5, 1.5):
            z = traj.state_at(t, kernel)
            head, tail = z.memory.blocks
            n_tail = nodes.size - len(head)
            assert len(tail) == (n_tail if initial == "profile" and e == 1 else 1)
            zr = ExtendedVector(z.u, z.v, reconstruct_eta(traj, t, kernel))
            assert zr.memory.blocks is None
            for sigma in (0.0, 1.0 / 3.0, 1.0):
                assert z.memory.node_norms_sq(sigma).tobytes() \
                    == zr.memory.node_norms_sq(sigma).tobytes()
                assert norm_H(z, sigma) == norm_H(zr, sigma)
                assert energy_sigma(z, sigma, model) == energy_sigma(zr, sigma, model)
                assert phi_functional(z, sigma, 0.1, 0.5, model, kernel) \
                    == phi_functional(zr, sigma, 0.1, 0.5, model, kernel)
                assert dissipation_rhs(z, sigma, kernel) == dissipation_rhs(zr, sigma, kernel)
            assert np.isfinite(phi_functional(z, 0.0, 0.1, 0.5, model, kernel))
            assert norm_H(z, 0.0) == pytest.approx(norm_H(zr, 0), rel=1e-13)


def test_dissipation_rhs_off_the_kernel_grid_evaluates_mu_prime(exp1):
    # a field on other nodes than the kernel's grid takes mu' at its own nodes
    lam = np.array([1.0, 4.0])
    nodes = (np.arange(50) + 0.5) * 0.1
    rng = np.random.default_rng(5)
    mem = HistoryField(nodes, rng.normal(size=(50, 2)), np.full(50, 0.1), lam, 0.1)
    z = ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam), mem)
    want = float(np.sum(exp1.mu_prime(nodes) * (mem.values ** 2 @ (1.0 / lam))) * 0.1)
    assert dissipation_rhs(z, 0.0, exp1) == pytest.approx(want, rel=1e-14)
    on_grid = HistoryField(exp1.grid.copy(), rng.normal(size=(exp1.grid.size, 2)),
                           exp1.mu_grid * exp1.ds, lam, exp1.ds)
    z = ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam), on_grid)
    want = float(np.sum(exp1.mu_prime(exp1.grid) * on_grid.node_norms_sq(0.0)) * exp1.ds)
    assert dissipation_rhs(z, 0.0, exp1) == want


def test_gamma_eps_zero_is_energy(exp1):
    model = make_model(3, f="cubic")
    z = draw_random_state(model, exp1, 1.0, "H0", np.random.default_rng(41))
    e = energy_sigma(z, 0.0, model)
    assert gamma_functional(z, 0.0, 0.0, 0.1, 0.5, model, exp1) == e


def test_gamma_decays_along_linear_run(exp1):
    model = make_model(2, f="zero")
    ops = assemble(model, exp1)
    lam = model.lambdas
    z0 = ExtendedVector(ModalVector(np.array([1.0, -0.4]), lam),
                        ModalVector.zeros(lam), HistoryField.zeros(exp1, lam))
    traj = integrate(z0, ops, exp1, "history", 5e-3, 20.0)
    ts = np.arange(2.0, 20.0, 2.0)
    gammas = [gamma_functional(traj.state_at(t, exp1), 0.0, 0.05, 0.1, 0.5,
                               model, exp1) for t in ts]
    gammas = np.array(gammas)
    assert np.all(gammas > 0)
    slope = np.polyfit(ts, np.log(gammas), 1)[0]
    assert slope < -0.05


# -- dissipation probe -----------------------------------------------------------

def test_dissipation_probe_zero_trajectory(exp1):
    model = make_model(2, f="zero")
    ops = assemble(model, exp1)
    z0 = zero_state(model, exp1)
    traj = integrate(z0, ops, exp1, "history", 1e-2, 12.0)
    assert dissipation_integral_probe(traj, 0.1) == 0.0


def test_dissipation_probe_linear_run(exp1):
    model = make_model(2, f="zero")
    ops = assemble(model, exp1)
    lam = model.lambdas
    z0 = ExtendedVector(ModalVector(np.array([1.0, 0.2]), lam),
                        ModalVector.zeros(lam), HistoryField.zeros(exp1, lam))
    c_short = dissipation_integral_probe(
        integrate(z0, ops, exp1, "history", 5e-3, 15.0), 0.1)
    c_long = dissipation_integral_probe(
        integrate(z0, ops, exp1, "history", 5e-3, 30.0), 0.1)
    assert 0.0 < c_short
    assert c_long <= c_short * 1.05 + 1e-12


# -- L/K split -------------------------------------------------------------------

def test_lk_zero_nonlinearity(exp1):
    model = make_model(2, f="zero")
    rng = np.random.default_rng(51)
    z1 = draw_random_state(model, exp1, 1.0, "H0", rng)
    z2 = draw_random_state(model, exp1, 1.0, "H0", rng)
    res = lk_split(z1, z2, model, exp1, 2.0, 5e-3)
    assert np.max(np.abs(res.k_traj.u_snaps)) == 0.0
    assert np.max(np.abs(res.l_traj.u_snaps - res.d_traj.u_snaps)) == 0.0


def test_lk_degenerate(exp1):
    model = make_model(2, f="cubic")
    z1 = draw_random_state(model, exp1, 1.0, "H0", np.random.default_rng(3))
    res = lk_split(z1, z1.copy(), model, exp1, 1.0, 1e-2)
    assert res.degenerate
    assert np.max(np.abs(res.d_traj.u_snaps)) == 0.0


def test_lk_superposition_cubic(exp1):
    model = make_model(3, f="cubic")
    rng = np.random.default_rng(61)
    z1 = draw_random_state(model, exp1, 0.5, "H0", rng)
    z2 = z1.copy()
    z2.u.coeffs = z1.u.coeffs + 1e-3 * rng.standard_normal(3)
    res = lk_split(z1, z2, model, exp1, 3.0, 5e-3)
    assert np.max(res.residual_rel) < 1e-12
    # the difference system tracks the literal base difference at roundoff scale
    assert res.base_gap_rel < 1e-9


def test_lk_split_rejects_t_end_below_dt(exp1):
    model = make_model(2, f="cubic")
    z1 = draw_random_state(model, exp1, 1.0, "H0", np.random.default_rng(3))
    with pytest.raises(ValueError, match="dt <= t_end"):
        lk_split(z1, z1.copy(), model, exp1, 5e-3, 1e-2)


# -- probes ----------------------------------------------------------------------

def test_condition_probe_zero(exp1):
    model = make_model(2, f="zero")
    ops = assemble(model, exp1)
    z0 = ExtendedVector(ModalVector.zeros(model.lambdas),
                        ModalVector.zeros(model.lambdas),
                        HistoryField.zeros(exp1, model.lambdas))
    from memoryflow.spaces import StateField
    z0.memory = StateField.zeros(exp1, model.lambdas)
    traj = integrate(z0, ops, exp1, "state", 1e-2, 2.0)
    rep = condition_asso_probe(traj, exp1)
    assert rep.sup_norm == 0.0


def test_condition_probe_constant(exp1):
    # equilibrium: psi = 0, sup equals the X0 norm of (u*, 0)
    model = make_model(2, f="zero", g=[0.4, -0.8])
    ops = assemble(model, exp1)
    lam = model.lambdas
    u_star = model.g / lam
    from memoryflow.spaces import StateField
    z0 = ExtendedVector(ModalVector(u_star, lam), ModalVector.zeros(lam),
                        StateField.zeros(exp1, lam))
    traj = integrate(z0, ops, exp1, "state", 1e-2, 2.0)
    rep = condition_asso_probe(traj, exp1)
    expect = math.sqrt(float(np.sum(lam * u_star ** 2)))
    assert rep.sup_norm == pytest.approx(expect, rel=1e-10)


def test_condition_probe_one_snapshot(exp1):
    # a hand-built trajectory holding only its initial snapshot: psi is 0
    lam = np.array([1.0, 4.0])
    u, v = np.array([[0.3, -0.1]]), np.array([[0.2, 0.5]])
    traj = Trajectory(
        times=np.array([0.0]), u_snaps=u, v_snaps=v,
        initial_memory=HistoryField.zeros(exp1, lam), window=exp1.s_max,
        framework="history", dt=1e-2, kernel_id=exp1.kernel_id, lambdas=lam)
    rep = condition_asso_probe(traj, exp1)
    expect = math.sqrt(float(np.sum(lam * u ** 2) + np.sum(v ** 2)))
    assert rep.sup_norm == pytest.approx(expect, rel=1e-15)


def test_hypothesis_probe_identity_and_decay(exp1):
    model = make_model(4, f="zero")
    rep = hypothesis_probe_suite(model, exp1, (1.0,), t_end=25.0, dt=5e-3,
                                 ensemble=1, seed=7)
    assert rep.identity_gap < 1e-14
    # g = 0 linear: plateau is decay toward zero
    assert rep.plateau_h1[1.0] < 0.05


def test_hypothesis_accel_sup_matches_a_direct_evaluation(exp1, monkeypatch):
    # the force behind accel_sup, read back from the run's u, is the direct
    # trapezoid sum at every sampled step (the members start with no memory)
    model = make_model(3, f="cubic", g=[0.5, 0.0, -0.3])
    lam, dt, trajs = model.lambdas, 5e-3, []

    def keep(*args):
        trajs.extend(integrate_ensemble(*args))
        return trajs
    monkeypatch.setattr(viscoelastic, "integrate_ensemble", keep)
    rep = hypothesis_probe_suite(model, exp1, (1.0, 2.0), t_end=0.6, dt=dt,
                                 ensemble=2, seed=3)
    n_steps = trajs[0].n_steps
    idxs = np.arange(0, n_steps + 1, max(1, n_steps // 400))
    mf = MemoryForce(exp1, "history", dt, n_steps)
    P = lam * np.stack([traj.u_snaps for traj in trajs])
    for i, radius in enumerate(rep.radii):
        want = 0.0
        for k in (2 * i, 2 * i + 1):
            u = trajs[k].u_snaps[idxs]
            F = np.array([direct_history_force(mf, n, P)[k] for n in idxs])
            acc = -lam * u - F - f_modal(model, u) + model.g
            want = max(want, float(np.max(np.linalg.norm(acc, axis=1))))
        assert rep.accel_sup[radius] == pytest.approx(want, rel=1e-12)


def test_model_file_roundtrip(tmp_path):
    g_path = tmp_path / "g.csv"
    g_path.write_text("mode,coeff\n1,0.5\n3,-0.25\n")
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "J": 4, "domain": "interval_pi", "f": "cubic",
        "g": str(g_path), "kernel": "unused.json"}))
    model, kpath = load_model_file(cfg)
    assert model.J == 4
    assert model.g[0] == 0.5 and model.g[2] == -0.25
    assert kpath == "unused.json"


@pytest.mark.parametrize("text,where", [
    ("mode,coeff\n1,0.5\n3,0.2\n", "line 3"), ("mode,coeff\n0,1.0\n", "line 2"),
    ("mode,coeff\n1,0.5\n1,0.7\n", "line 3"), ("mode,coeff\n1.5,0.2\n", "line 2"),
    ("mode,coeff\n2,nan\n", "line 2"), ("mode,coeff\n1,0.5\n2,inf\n", "line 3"),
    ("mode,coeff\nx,1\n", "line 2"), ("", "the header row"),
    ("mode,value\n1,0.5\n", "the header row"), ("mode,coeff\n1,0.5,7\n", "line 2"),
    ("mode,coeff\n# a comment\n\n1,0.5\n2\n", "line 5")],
    ids=["above-J", "zero", "repeat", "fraction", "nan", "inf", "text", "empty",
         "no-coeff", "extra-cell", "short-row"])
def test_g_csv_refuses_bad_rows(tmp_path, text, where):
    # modes are integers in 1..J listed once, coeffs finite; J = 2.  An
    # empty file used to raise an IndexError, and a header without coeff or
    # a row with a cell too many a numpy error naming neither g nor the row
    g_path = tmp_path / "g.csv"
    g_path.write_text(text)
    with pytest.raises(ValueError, match=re.escape("model field 'g': %s of %s"
                                                   % (where, g_path))):
        load_g_csv(str(g_path), 2)


def test_g_csv_reads_comments_and_a_commented_header(tmp_path):
    g_path = tmp_path / "g.csv"
    g_path.write_text("# coeff,mode\n\n0.5,2  # the second mode\n# 7,1\n")
    assert np.array_equal(load_g_csv(str(g_path), 3), [0.0, 0.5, 0.0])
