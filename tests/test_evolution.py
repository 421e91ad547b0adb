import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from memoryflow.kernels import (
    MemoryKernel,
    make_exponential_kernel,
    make_tabulated_kernel,
)
from memoryflow.spaces import (
    ExtendedVector,
    HistoryField,
    ModalVector,
    StateField,
    lambda_map,
    norm_H,
)
from memoryflow import evolution
from memoryflow.evolution import (
    BlowUpError,
    ModelOperators,
    Trajectory,
    integrate,
    integrate_ensemble,
    intertwine_residual,
    reconstruct_eta,
    reconstruct_xi,
    save_trajectory_csv,
)
from memoryflow.viscoelastic import assemble, draw_random_state, f_modal, make_model

from support import (
    direct_history_force,
    direct_state_force,
    history_from_profile,
    holder_growth_probe,
    record_kernel_calls,
    right_translate,
)


@pytest.fixture(scope="module")
def exp1():
    return make_exponential_kernel(1.0)


def linear_ops(lam):
    lam = np.asarray(lam, dtype=float)
    return ModelOperators(lam, np.zeros_like(lam))


def single_mode_state(exp1, u0=1.0, v0=0.0):
    lam = np.array([1.0])
    return ExtendedVector(ModalVector(np.array([u0]), lam),
                          ModalVector(np.array([v0]), lam),
                          HistoryField.zeros(exp1, lam)), lam


def oracle_solution(u0, v0, lam, delta, times):
    """Single-mode reduced system (u, v, m) solved by matrix exponential."""
    M = np.array([[0.0, 1.0, 0.0],
                  [-lam, 0.0, -1.0],
                  [0.0, delta * lam, -delta]])
    dt = times[1] - times[0]
    E = expm(M * dt)
    y = np.array([u0, v0, 0.0])
    out = np.empty((times.size, 3))
    for i in range(times.size):
        out[i] = y
        y = E @ y
    return out


def test_zero_data_stays_zero(exp1):
    lam = np.array([1.0, 4.0])
    ops = linear_ops(lam)
    z0 = ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam),
                        HistoryField.zeros(exp1, lam))
    traj = integrate(z0, ops, exp1, "history", 1e-2, 1.0)
    assert np.all(traj.u_snaps == 0.0)
    assert np.all(traj.v_snaps == 0.0)


def test_single_mode_oracle(exp1):
    z0, lam = single_mode_state(exp1)
    ops = linear_ops(lam)
    dt = 2e-3
    traj = integrate(z0, ops, exp1, "history", dt, 4.0)
    oracle = oracle_solution(1.0, 0.0, 1.0, 1.0, traj.times)
    err = np.max(np.abs(traj.u_snaps[:, 0] - oracle[:, 0]))
    assert err < 5e-6


def test_convergence_order(exp1):
    z0, lam = single_mode_state(exp1)
    ops = linear_ops(lam)
    errs = []
    for dt in (8e-3, 4e-3):
        traj = integrate(z0, ops, exp1, "history", dt, 4.0)
        oracle = oracle_solution(1.0, 0.0, 1.0, 1.0, traj.times)
        errs.append(np.max(np.abs(traj.u_snaps[:, 0] - oracle[:, 0])))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.8


def test_state_framework_oracle(exp1):
    lam = np.array([1.0])
    ops = linear_ops(lam)
    z0 = ExtendedVector(ModalVector(np.array([1.0]), lam),
                        ModalVector.zeros(lam), StateField.zeros(exp1, lam))
    dt = 2e-3
    traj = integrate(z0, ops, exp1, "state", dt, 4.0)
    oracle = oracle_solution(1.0, 0.0, 1.0, 1.0, traj.times)
    err = np.max(np.abs(traj.u_snaps[:, 0] - oracle[:, 0]))
    assert err < 5e-6


def test_framework_mismatch_rejected(exp1):
    z0, lam = single_mode_state(exp1)
    with pytest.raises(ValueError, match="framework"):
        integrate(z0, linear_ops(lam), exp1, "state", 1e-2, 1.0)


def test_run_arrays_over_the_budget_are_refused(exp1, monkeypatch):
    # 1e12 steps could never be allocated: the check comes before any array
    z0, lam = single_mode_state(exp1)
    with pytest.raises(ValueError, match=r"t_end = 1000 over dt = 1e-09 with 1 "
                                         r"members of J = 1 modes"):
        integrate(z0, linear_ops(lam), exp1, "history", 1e-9, 1e3)
    # the budget bounds (n_steps + 1) E J: 2 members of 3 modes, 100 steps
    lam = np.array([1.0, 4.0, 9.0])
    z0s = [ExtendedVector(ModalVector(np.full(3, 0.1 * e), lam), ModalVector.zeros(lam),
                          HistoryField.zeros(exp1, lam)) for e in (1, 2)]
    monkeypatch.setattr(evolution, "MAX_RUN_VALUES", 101 * 2 * 3)
    assert len(integrate_ensemble(z0s, linear_ops(lam), exp1, "history", 1e-2, 1.0)) == 2
    with pytest.raises(ValueError, match="612 values per run array, more than "
                                         "the budget of 606"):
        integrate_ensemble(z0s, linear_ops(lam), exp1, "history", 1e-2, 1.01)


def test_integrate_ensemble_matches_solo_runs(exp1):
    # batch rows are bitwise equal to the same members integrated one by one,
    # including a member whose nonzero initial memory only it pays for; the
    # f = "zero" model runs a block at a time under the exp1 cutoff window;
    # at J = 128 the cubic's vecdot and matvec calls carry most of a step
    for J, f in ((8, "cubic"), (8, "zero"), (128, "cubic")):
        model = make_model(J, f=f, g=np.r_[0.5, 0, 0.3, np.zeros(J - 3)])
        ops = assemble(model, exp1)
        lam = model.lambdas
        z0s = [draw_random_state(model, exp1, 1.0, "H1", np.random.default_rng([5, e]))
               for e in range(4)]
        z0s[2].memory = history_from_profile(
            exp1, lam, lambda s: 0.1 * np.sin(s) * np.ones(lam.size))
        for framework in ("history", "state"):
            if framework == "state":
                z0s = [ExtendedVector(z.u.copy(), z.v.copy(), lambda_map(z.memory, exp1))
                       for z in z0s]
            batch = integrate_ensemble(z0s, ops, exp1, framework, 2e-3, 0.6)
            for z0, traj in zip(z0s, batch):
                solo = integrate(z0, ops, exp1, framework, 2e-3, 0.6)
                for name in ("u_snaps", "v_snaps", "force_snaps"):
                    assert np.array_equal(getattr(traj, name), getattr(solo, name))


def test_affine_stepper_matches_generic_rk4():
    # assemble gives f = "zero" as f = None; the same model with an f that
    # returns zeros steps one at a time.  A cutoff of 0.5 at dt=2e-3 is 250
    # nodes, so f = None runs a block at a time here, and this pins the
    # block path to the stepwise RK4
    kernel = exp1_cut(0.5)
    model = make_model(8, f="zero", g=[0.5, 0, 0.3, 0, 0, 0, 0, -0.2])
    ops = assemble(model, kernel)
    assert ops.f is None
    plain = ModelOperators(ops.lambdas, ops.g, f=np.zeros_like)
    lam = model.lambdas
    z0 = draw_random_state(model, kernel, 1.0, "H1", np.random.default_rng(8))
    z0.memory = history_from_profile(
        kernel, lam, lambda s: 0.1 * np.sin(s) * np.ones(lam.size))
    z0_s = ExtendedVector(z0.u.copy(), z0.v.copy(), lambda_map(z0.memory, kernel))
    for framework, z in (("history", z0), ("state", z0_s)):
        fast = integrate(z, ops, kernel, framework, 2e-3, 1.2)
        slow = integrate(z, plain, kernel, framework, 2e-3, 1.2)
        for name in ("u_snaps", "v_snaps", "force_snaps"):
            want = getattr(slow, name)
            np.testing.assert_allclose(getattr(fast, name), want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())


def textbook_predictor_corrector(z0s, model, kernel, framework, dt, t_end):
    """(U, V) of the predictor-corrector scheme with four fresh B calls per pass."""
    from memoryflow.evolution import MemoryForce
    lam, g = model.lambdas, model.g

    def B(u, v, F):
        return v, -lam * u - F - f_modal(model, u) + g

    def rk4(u, v, F0, F1):
        Fm = 0.5 * (F0 + F1)
        k1u, k1v = B(u, v, F0)
        k2u, k2v = B(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, Fm)
        k3u, k3v = B(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, Fm)
        k4u, k4v = B(u + dt * k3u, v + dt * k3v, F1)
        return (u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
                v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))

    n_steps = int(round(t_end / dt))
    U = np.empty((len(z0s), n_steps + 1, lam.size))
    V, X = np.empty_like(U), np.empty_like(U)
    U[:, 0] = [z.u.coeffs for z in z0s]
    V[:, 0] = [z.v.coeffs for z in z0s]
    # the memory source: lambdas*u (history) or lambdas*v (state)
    source = U if framework == "history" else V
    mf = MemoryForce(kernel, framework, dt, n_steps)
    mf.set_initial_memory([z.memory for z in z0s])

    def advance(n, F0, F1):
        U[:, n + 1], V[:, n + 1] = rk4(U[:, n], V[:, n], F0, F1)
        X[:, n + 1] = lam * source[:, n + 1]

    X[:, 0] = lam * source[:, 0]
    for n in range(n_steps):
        F0 = mf.force(n, X)
        advance(n, F0, F0)
        advance(n, F0, mf.force(n + 1, X))
    return U, V


def test_stepper_matches_textbook_predictor_corrector(exp1):
    # the stepper shares the predictor's f at u-stages 1-3 and forms each
    # stage from per-mode coefficients, so it matches the textbook scheme to
    # roundoff, at the block path's 1e-12 bound
    model = make_model(8, f="cubic", g=[0.5, 0, 0.3, 0, 0, 0, 0, -0.2])
    ops = assemble(model, exp1)
    lam = model.lambdas
    z0s = [draw_random_state(model, exp1, 2.0, "H1", np.random.default_rng([9, e]))
           for e in range(2)]
    z0s[1].memory = history_from_profile(
        exp1, lam, lambda s: 0.1 * np.sin(s) * np.ones(lam.size))
    for framework in ("history", "state"):
        if framework == "state":
            z0s = [ExtendedVector(z.u.copy(), z.v.copy(), lambda_map(z.memory, exp1))
                   for z in z0s]
        trajs = integrate_ensemble(z0s, ops, exp1, framework, 2e-3, 0.4)
        U, V = textbook_predictor_corrector(z0s, model, exp1, framework, 2e-3, 0.4)
        for e, traj in enumerate(trajs):
            for got, want in ((traj.u_snaps, U[e]), (traj.v_snaps, V[e])):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-12 * np.abs(want).max())


def test_stepper_matches_textbook_with_forcing_rows(exp1):
    # per-member forcing rows and f = u^3 - beta u; the corrector reuses the
    # predictor's stage 1 and u-stage 2 and must recompute from a2 on
    model = make_model(6, f="cubic_minus_linear", beta=0.5)
    model.g = np.random.default_rng(4).uniform(-0.5, 0.5, (3, 6))
    ops = assemble(model, exp1)
    lam = model.lambdas
    z0s = [draw_random_state(model, exp1, 2.0, "H1", np.random.default_rng([10, e]))
           for e in range(3)]
    z0s[2].memory = history_from_profile(
        exp1, lam, lambda s: 0.1 * np.exp(-s) * np.ones(lam.size))
    for framework in ("history", "state"):
        if framework == "state":
            z0s = [ExtendedVector(z.u.copy(), z.v.copy(), lambda_map(z.memory, exp1))
                   for z in z0s]
        trajs = integrate_ensemble(z0s, ops, exp1, framework, 2e-3, 0.4)
        U, V = textbook_predictor_corrector(z0s, model, exp1, framework, 2e-3, 0.4)
        for e, traj in enumerate(trajs):
            for got, want in ((traj.u_snaps, U[e]), (traj.v_snaps, V[e])):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-12 * np.abs(want).max())


def exp1_cut(s_max):
    """exp1 with its support cutoff, and so its memory window, at s_max."""
    return make_exponential_kernel(1.0, s_max=s_max)


def triangle(end):
    """The broken line from 6/end^2 at 0 to 0 at end <= 1: unit first moment."""
    return make_tabulated_kernel([0.0, end], [6.0 / end ** 2, 0.0], theta=1.0,
                                 delta_decay=1.0)


TRIANGLE = triangle(1.0)
EXP50 = make_exponential_kernel(50.0)


@pytest.mark.parametrize("kernel,dt,t_end,rows", [
    # a tabulated window of 500 nodes, then a 23-node exponential one,
    # each with one (J,) forcing and with forcing rows; the exp1 cutoff
    # window would take the block path but for its forcing rows
    (TRIANGLE, 2e-3, 1.2, None), (TRIANGLE, 2e-3, 1.2, 5),
    (EXP50, 2e-2, 1.0, None), (EXP50, 2e-2, 1.0, 3),
    (None, 2e-3, 0.4, 3), (None, 2e-3, 0.4, 5)],
    ids=["triangle", "triangle-rows5", "exp50", "exp50-rows3", "exp1-rows3",
         "exp1-rows5"])
def test_linear_stepper_matches_textbook_predictor_corrector(exp1, kernel, dt,
                                                             t_end, rows):
    kernel = kernel or exp1
    model = make_model(6, f="zero", g=[0.5, 0, 0.3, 0, 0, -0.2])
    if rows:
        model.g = np.random.default_rng(11).uniform(-0.5, 0.5, (rows, 6))
    ops = assemble(model, kernel)
    assert ops.f is None
    lam = model.lambdas
    z0s = [draw_random_state(model, kernel, 2.0, "H1", np.random.default_rng([12, e]))
           for e in range(rows or 3)]
    z0s[1].memory = history_from_profile(
        kernel, lam, lambda s: 0.1 * np.exp(-s) * np.ones(lam.size))
    for framework in ("history", "state"):
        if framework == "state":
            z0s = [ExtendedVector(z.u.copy(), z.v.copy(), lambda_map(z.memory, kernel))
                   for z in z0s]
        trajs = integrate_ensemble(z0s, ops, kernel, framework, dt, t_end)
        U, V = textbook_predictor_corrector(z0s, model, kernel, framework, dt, t_end)
        for e, traj in enumerate(trajs):
            for got, want in ((traj.u_snaps, U[e]), (traj.v_snaps, V[e])):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("framework,first_bad", [
    pytest.param(framework, n, id=framework if n == 55 else "%s-step%d" % (framework, n))
    for framework in ("history", "state")
    for n in (55, evolution.BLOCK - 1, evolution.BLOCK, evolution.BLOCK + 1)])
def test_blowup_guard_checks_v_on_the_generic_path(exp1, monkeypatch, framework,
                                                    first_bad):
    # member 1 has u = g (1 - cos t), v = g sin t, less the memory's damping:
    # v leaves the guard near t = 0.551 (pi/6 undamped), while u stays below
    # it until pi/3.  With dt = 0.56 / (first_bad + 1) the step first_bad is
    # the first whose end is past the guard; the stepper checks the guard
    # once per BLOCK steps, so first_bad = BLOCK - 1, BLOCK, BLOCK + 1 put it
    # at the end of the first block, at the start and inside the second
    t_blow = 0.56
    dt = t_blow / (first_bad + 1)
    lam = np.array([1.0])
    ops = ModelOperators(lam, np.array([[0.0], [2e8]]), f=np.zeros_like)
    field = HistoryField if framework == "history" else StateField
    z0s = [ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam),
                          field.zeros(exp1, lam)) for _ in range(2)]
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(BlowUpError) as exc:
        warnings.simplefilter("always")
        integrate_ensemble(z0s, ops, exp1, framework, dt, 5.0)
    assert exc.value.t == pytest.approx((first_bad + 1) * dt, rel=1e-12)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    monkeypatch.setattr(evolution, "BLOWUP_GUARD", 2 * evolution.BLOWUP_GUARD)
    trajs = integrate_ensemble(z0s, ops, exp1, framework, dt, t_blow)
    assert trajs[1].n_steps == first_bad + 1
    u, v = trajs[1].u_snaps, trajs[1].v_snaps
    assert np.abs(v[:-1]).max() <= 1e8 < np.abs(v[-1]).max()
    assert np.abs(u).max() <= 0.5e8


def test_stepper_evaluates_f_five_times_per_step(exp1):
    model = make_model(4, f="cubic")
    calls = []

    def f(u):
        calls.append(u.shape)
        return f_modal(model, u)

    ops = ModelOperators(model.lambdas, model.g, f)
    z0s = [draw_random_state(model, exp1, 1.0, "H1", np.random.default_rng([3, e]))
           for e in range(3)]
    integrate_ensemble(z0s, ops, exp1, "history", 1e-2, 0.5)
    assert len(calls) == 5 * 50
    assert set(calls) == {(3, 4)}


# -- the stepper's per-mode stage coefficients -----------------------------------
# slots z = (u, v, F0, g, f1, f2, f3, f4p, F1, f4c); the coefficients come in
# step order and read the prefixes z[:k] for these k
PREFIXES = (5, 6, 7, 8, 9, 10)


@pytest.mark.parametrize("dt", [2e-3, 5e-2])
def test_stage_coefficients_reproduce_rk4(dt):
    # on random slot values, the coefficients give _rk4's u-stages 2-4 of
    # both passes and both passes' (u, v)
    lam = np.arange(1, 7, dtype=float) ** 2
    z = np.random.default_rng(13).normal(size=(3, lam.size, 10))
    args, values = [], iter(z[..., [4, 5, 6, 7, 9]].transpose(2, 0, 1))

    def f(x):
        args.append(x.copy())
        return next(values)

    ops = ModelOperators(lam, z[..., 3], f)
    wp, shared = evolution._rk4(ops, z[..., 0], z[..., 1], dt, z[..., 2], z[..., 2])
    wn, _ = evolution._rk4(ops, z[..., 0], z[..., 1], dt, z[..., 2], z[..., 8], shared)
    assert np.array_equal(args[0], z[..., 0])
    wants = [args[1][..., None], args[2][..., None], args[3][..., None],
             np.stack(wp, axis=-1), args[4][..., None], np.stack(wn, axis=-1)]
    coefs = evolution._stage_coefficients(lam, dt)
    for k, c, want in zip(PREFIXES, coefs, wants):
        got = np.matmul(z[:, :, None, :k], c[:, :k])[..., 0, :]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_stage_coefficients_vanish_past_their_prefix():
    # a stage reads only slots filled before it in the same step, so no
    # value of the step before, NaN or inf included, reaches it
    lam = np.array([1.0, 4.0, 1e4])
    coefs = evolution._stage_coefficients(lam, 2e-3)
    assert [c.shape for c in coefs] == [(3, 10, 1)] * 3 + [(3, 10, 2), (3, 10, 1),
                                                            (3, 10, 2)]
    for k, c in zip(PREFIXES, coefs):
        assert np.all(c[:, k:] == 0.0)
    # the corrector's u-stage 4 does not read the predictor's f4p
    assert np.all(coefs[4][:, 7] == 0.0)


def forcing_rows_runs(exp1):
    """cubic_minus_linear with (E, J) forcing rows and one member with
    nonzero initial memory, as (model, (framework, z0s) pairs)."""
    model = make_model(6, f="cubic_minus_linear", beta=0.5)
    model.g = np.random.default_rng(14).uniform(-0.5, 0.5, (3, 6))
    lam = model.lambdas
    z0s = [draw_random_state(model, exp1, 2.0, "H1", np.random.default_rng([15, e]))
           for e in range(3)]
    z0s[1].memory = history_from_profile(
        exp1, lam, lambda s: 0.1 * np.exp(-s) * np.ones(lam.size))
    state = [ExtendedVector(z.u.copy(), z.v.copy(), lambda_map(z.memory, exp1))
             for z in z0s]
    return model, (("history", z0s), ("state", state))


def test_stepwise_batch_rows_match_solo_runs_with_forcing_rows(exp1):
    model, runs = forcing_rows_runs(exp1)
    rows = model.g
    for framework, z0s in runs:
        model.g = rows
        batch = integrate_ensemble(z0s, assemble(model, exp1), exp1, framework, 2e-3, 0.6)
        for e, (z0, traj) in enumerate(zip(z0s, batch)):
            model.g = rows[e:e + 1]
            solo = integrate(z0, assemble(model, exp1), exp1, framework, 2e-3, 0.6)
            for name in ("u_snaps", "v_snaps", "force_snaps"):
                assert np.array_equal(getattr(traj, name), getattr(solo, name))


def test_stepwise_prefix_property_for_a_cubic_run(exp1):
    # runs to T and 2T inside the kernel-cutoff window
    model, runs = forcing_rows_runs(exp1)
    ops = assemble(model, exp1)
    for framework, z0s in runs:
        short, long = (integrate_ensemble(z0s, ops, exp1, framework, 2e-3, t)
                       for t in (0.4, 0.8))
        for s, l in zip(short, long):
            for name in ("u_snaps", "v_snaps", "force_snaps"):
                assert np.array_equal(getattr(s, name),
                                      getattr(l, name)[:s.n_steps + 1])


# -- blocked memory-force window -------------------------------------------------
# a cutoff of 0.5 at dt=2e-3 gives W=250 nodes, not a multiple of BLOCK, and
# the runs go well past W + 2*BLOCK steps, where every window is full

WIN, WIN_DT, WIN_STEPS = 0.5, 2e-3, 600


def test_memory_force_window_matches_direct_sum():
    from memoryflow.evolution import BLOCK, MemoryForce
    assert (WIN_STEPS > round(WIN / WIN_DT) + 2 * BLOCK
            and round(WIN / WIN_DT) % BLOCK != 0)
    lam = np.arange(1, 5, dtype=float) ** 2
    X = np.random.default_rng(3).normal(size=(3, WIN_STEPS + 1, lam.size))
    # exponential kernels state their rate and take the recursion, triangles
    # the blocked products; each with a cutoff of 250 nodes, of 10 nodes,
    # shorter than one block, and of 0.201, between nodes 100 and 101, where
    # the weight at node W = 100, k or the triangle's mu, is not 0.0
    both = ("history", "state")
    cases = [(make(cut), both if make is exp1_cut else ())
             for make in (exp1_cut, triangle) for cut in (WIN, 10 * WIN_DT, 0.201)]
    # the exp50 cutoff (235 nodes), where k is 0.0 at node W
    short = make_exponential_kernel(50.0)
    cases.append((short, both))
    for kernel, recursive in cases:
        zero = [HistoryField.zeros(kernel, lam)] * 3
        for framework, direct in (("history", direct_history_force),
                                  ("state", direct_state_force)):
            mf = MemoryForce(kernel, framework, WIN_DT, WIN_STEPS)
            assert (mf._q is not None) == (framework in recursive)
            if kernel is short:
                assert mf.k_dt[mf.w_nodes] == 0.0 < mf.k_dt[mf.w_nodes - 1]
            if kernel.s_max == 0.201:
                assert mf.w_nodes == 100 and mf._w[mf.w_nodes] > 0.0
            mf.set_initial_memory(zero)
            # roundoff scales with the weights: mu integrates to k(0)
            atol = 1e-14 * max(1.0, kernel.mass)
            for n in range(WIN_STEPS + 1):
                want = direct(mf, n, X)
                # twice per n, as the predictor-corrector loop asks for it
                for _ in range(2):
                    got = mf.force(n, X)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)
            # out of order: the recursion restarts when n goes back and
            # catches up when it jumps forward
            for n in (3, WIN_STEPS, 400, 399, 0, 251):
                np.testing.assert_allclose(mf.force(n, X), direct(mf, n, X),
                                           rtol=1e-12, atol=atol)


def test_history_force_exactly_zero_on_constant_trajectory(exp1):
    # the recursion runs on differences of P, which are exactly 0.0 here,
    # inside the window and past it
    from memoryflow.evolution import MemoryForce
    lam = np.array([1.0, 4.0, 9.0])
    P = np.empty((2, WIN_STEPS + 1, lam.size))
    P[:] = [[0.7, -1.3, 2.9]]
    P[1] *= 1e3
    for kernel in (exp1_cut(WIN), exp1):
        mf = MemoryForce(kernel, "history", WIN_DT, WIN_STEPS)
        mf.set_initial_memory([HistoryField.zeros(kernel, lam)] * 2)
        for n in range(WIN_STEPS + 1):
            assert np.all(mf.history_force(n, P) == 0.0)


def test_state_initial_memory_vanishes_past_support(exp1):
    from memoryflow.evolution import MemoryForce
    lam = np.array([1.0, 4.0])
    xi0 = StateField.zeros(exp1, lam)
    xi0.values[:] = np.asarray(exp1.mu(xi0.nodes))[:, None]
    dt = 0.05
    n_past = int(math.ceil((xi0.nodes[-1] + 0.5 * xi0.ds) / dt)) + 3
    a = np.random.default_rng(4).normal(size=(1, n_past + 1, lam.size))

    def force(mem, n):
        mf = MemoryForce(exp1, "state", dt, n_past)
        mf.set_initial_memory([mem])
        return mf.state_force(n, a)

    zero = StateField.zeros(exp1, lam)
    assert np.array_equal(force(xi0, n_past), force(zero, n_past))
    # before the end of the support the term is live
    assert not np.allclose(force(xi0, 1), force(zero, 1))


def window_runs(kernel, f):
    model = make_model(8, f=f, g=[0.5, 0, 0.3, 0, 0, 0, 0, 0])
    ops = assemble(model, kernel)
    lam = model.lambdas
    z0s = [draw_random_state(model, kernel, 1.0, "H1", np.random.default_rng([6, e]))
           for e in range(3)]
    z0s[1].memory = history_from_profile(
        kernel, lam, lambda s: 0.1 * np.sin(s) * np.ones(lam.size))
    state = [ExtendedVector(z.u.copy(), z.v.copy(), lambda_map(z.memory, kernel))
             for z in z0s]
    return ops, (("history", z0s), ("state", state))


def test_prefix_property_past_the_window():
    t_end = WIN_STEPS * WIN_DT
    kernel = exp1_cut(WIN)
    for f in ("cubic", "zero"):
        ops, runs = window_runs(kernel, f)
        for framework, z0s in runs:
            z0 = z0s[1]
            short = integrate(z0, ops, kernel, framework, WIN_DT, t_end)
            long = integrate(z0, ops, kernel, framework, WIN_DT, 2 * t_end)
            n = short.n_steps + 1
            for name in ("u_snaps", "v_snaps", "force_snaps"):
                assert np.array_equal(getattr(short, name), getattr(long, name)[:n])


def test_integrate_ensemble_matches_solo_runs_past_the_window():
    t_end = WIN_STEPS * WIN_DT
    kernel = exp1_cut(WIN)
    for f in ("cubic", "zero"):
        ops, runs = window_runs(kernel, f)
        for framework, z0s in runs:
            batch = integrate_ensemble(z0s, ops, kernel, framework, WIN_DT, t_end)
            for z0, traj in zip(z0s, batch):
                solo = integrate(z0, ops, kernel, framework, WIN_DT, t_end)
                for name in ("u_snaps", "v_snaps", "force_snaps"):
                    assert np.array_equal(getattr(traj, name), getattr(solo, name))


# -- linear runs a block at a time ----------------------------------------------

def block_and_stepwise(monkeypatch, *args, **kwargs):
    """integrate_ensemble as it runs, and again with the block path turned off."""
    fast = integrate_ensemble(*args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(evolution, "_block_path", lambda ops, mf: False)
        slow = integrate_ensemble(*args, **kwargs)
    return fast, slow


def test_block_path_matches_stepwise(exp1, monkeypatch):
    # 3 members, one with nonzero initial memory; runs of 165, 512 = 16
    # BLOCK and 565 steps, cutoffs of 33, 100 (0.201, between nodes) and 250
    # nodes (shorter than the run) and of exp1, 11515 nodes (longer)
    win = exp1_cut(WIN)
    cases = [(0.33, exp1), (1.13, win), (1.024, win),
             (1.13, exp1_cut((evolution.BLOCK + 1) * WIN_DT)), (1.13, exp1_cut(0.201))]
    for t_end, kernel in cases:
        ops, runs = window_runs(kernel, "zero")
        for framework, z0s in runs:
            fast, slow = block_and_stepwise(monkeypatch, z0s, ops, kernel, framework,
                                            WIN_DT, t_end)
            for got, want in zip(fast, slow):
                for name in ("u_snaps", "v_snaps", "force_snaps"):
                    w = getattr(want, name)
                    np.testing.assert_allclose(getattr(got, name), w, rtol=0,
                                               atol=1e-12 * np.abs(w).max())


def test_block_path_prefix_property_inside_the_window(exp1):
    # the kernel-cutoff window (11515 nodes) outlasts both runs; 160 steps
    # is 5 BLOCK, so the force at the end comes from a block of its own
    ops, runs = window_runs(exp1, "zero")
    for framework, z0s in runs:
        for n_steps in (160, 165):
            short = integrate(z0s[1], ops, exp1, framework, WIN_DT, n_steps * WIN_DT)
            long = integrate(z0s[1], ops, exp1, framework, WIN_DT, 2 * n_steps * WIN_DT)
            for name in ("u_snaps", "v_snaps", "force_snaps"):
                assert np.array_equal(getattr(short, name),
                                      getattr(long, name)[:n_steps + 1])


def pass_length(kernel):
    """The window's top = W - 1 and the steps per pass of `_integrate_blocks`."""
    top = evolution.MemoryForce(kernel, "history", WIN_DT, 10 ** 5)._top
    return top, min(top, 4 * evolution.BLOCK)


def test_block_path_matches_stepwise_at_the_pass_length(monkeypatch):
    # top = 100 is between BLOCK and 4 BLOCK, so a pass is top steps and the
    # steady matrix takes over at step 128, inside the second pass; top =
    # 300 is not a multiple of 128, and the steady matrix takes over at step
    # 320, inside the third 128-step pass; both runs go past the window
    cases = [(1.13, exp1_cut(101 * WIN_DT), (100, 100)),
             (1.6, exp1_cut(301 * WIN_DT), (300, 128))]
    for t_end, kernel, top_and_pass in cases:
        assert pass_length(kernel) == top_and_pass
        ops, runs = window_runs(kernel, "zero")
        for framework, z0s in runs:
            fast, slow = block_and_stepwise(monkeypatch, z0s, ops, kernel, framework,
                                            WIN_DT, t_end)
            for got, want in zip(fast, slow):
                for name in ("u_snaps", "v_snaps", "force_snaps"):
                    w = getattr(want, name)
                    np.testing.assert_allclose(getattr(got, name), w, rtol=0,
                                               atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("delta,t_end", [(8.0, 1.0), (20.0, 2.0)])
def test_block_path_matches_stepwise_on_stiff_kernels(monkeypatch, delta, t_end):
    # windows of 2880 and 1152 steps at dt = 1e-3: the gain and edge scalars
    # span many decades, so step matrices taken from differences of the step
    # at probe values of the scalars would lose digits to cancellation
    kernel = make_exponential_kernel(delta)
    model = make_model(4, f="zero", g=[0.5, 0.0, 0.3, -0.2])
    ops, lam = assemble(model, kernel), model.lambdas
    z0s = [draw_random_state(model, kernel, 1.0, "H1", np.random.default_rng([19, e]))
           for e in range(3)]
    z0s[1].memory = history_from_profile(
        kernel, lam, lambda s: 0.1 * np.sin(s) * np.ones(lam.size))
    state = [ExtendedVector(z.u.copy(), z.v.copy(), lambda_map(z.memory, kernel))
             for z in z0s]
    for framework, zs in (("history", z0s), ("state", state)):
        fast, slow = block_and_stepwise(monkeypatch, zs, ops, kernel, framework,
                                        1e-3, t_end)
        for got, want in zip(fast, slow):
            for name in ("u_snaps", "v_snaps", "force_snaps"):
                w = getattr(want, name)
                np.testing.assert_allclose(getattr(got, name), w, rtol=0,
                                           atol=1e-12 * np.abs(w).max())


def test_block_path_prefix_property_at_one_and_two_passes(exp1):
    # runs of P and 2P steps against runs twice as long, for the exp1
    # cutoff (P = 128, inside the window) and for top = P = 100 (past it)
    for kernel in (exp1, exp1_cut(101 * WIN_DT)):
        _, P = pass_length(kernel)
        ops, runs = window_runs(kernel, "zero")
        for framework, z0s in runs:
            for n_steps in (P, 2 * P):
                short, long = (integrate(z0s[1], ops, kernel, framework, WIN_DT, k * WIN_DT)
                               for k in (n_steps, 2 * n_steps))
                for name in ("u_snaps", "v_snaps", "force_snaps"):
                    assert np.array_equal(getattr(short, name),
                                          getattr(long, name)[:n_steps + 1])


def test_block_path_bits_where_the_window_fills():
    # top = 300, P = 128: the pass from step 256 holds n = top and top + 1,
    # where the inputs x1, xt and then x0 leave row 0 for slices of u or v
    kernel = exp1_cut(301 * WIN_DT)
    assert pass_length(kernel) == (300, 128)
    ops, runs = window_runs(kernel, "zero")
    for framework, z0s in runs:
        z0s = z0s[:2]               # the second has nonzero initial memory
        short, long = (integrate_ensemble(z0s, ops, kernel, framework, WIN_DT, k * WIN_DT)
                       for k in (330, 660))
        for e, z0 in enumerate(z0s):
            solo = integrate(z0, ops, kernel, framework, WIN_DT, 660 * WIN_DT)
            for name in ("u_snaps", "v_snaps", "force_snaps"):
                assert np.array_equal(getattr(short[e], name), getattr(long[e], name)[:331])
                assert np.array_equal(getattr(long[e], name), getattr(solo, name))


def assert_block_runs(monkeypatch, z0s, ops, kernel, framework, n_steps):
    """The block path's batch against the stepwise path at 1e-12 and, bitwise,
    against each member run alone; returns the batch."""
    fast, slow = block_and_stepwise(monkeypatch, z0s, ops, kernel, framework,
                                    WIN_DT, n_steps * WIN_DT)
    for z0, got, want in zip(z0s, fast, slow):
        solo = integrate(z0, ops, kernel, framework, WIN_DT, n_steps * WIN_DT)
        for name in ("u_snaps", "v_snaps", "force_snaps"):
            w = getattr(want, name)
            np.testing.assert_allclose(getattr(got, name), w, rtol=0,
                                       atol=1e-12 * np.abs(w).max())
            assert np.array_equal(getattr(got, name), getattr(solo, name))
    return fast


@pytest.mark.parametrize("top", [254, 255, 256, 257])
def test_block_path_where_the_lag_slots_refill(monkeypatch, top):
    # P = 128: the lag slots hold lambda X[0] until a pass reaches past top,
    # to step top + 1, which is the last step of the pass from 128 (top =
    # 254), the first of the pass from 256 (255), or one or two steps into
    # it (256, 257); the pass from 128 reads its scalars as table slices
    # unless it reaches top (254, 255)
    kernel = exp1_cut((top + 1) * WIN_DT)
    assert pass_length(kernel) == (top, 128)
    ops, runs = window_runs(kernel, "zero")
    for framework, z0s in runs:
        long = assert_block_runs(monkeypatch, z0s, ops, kernel, framework, WIN_STEPS)
        # runs that end before, in and after the first refill pass
        for n_steps in (top - 1, top + 2, top + 130):
            short = integrate_ensemble(z0s, ops, kernel, framework, WIN_DT,
                                       n_steps * WIN_DT)
            for got, want in zip(short, long):
                for name in ("u_snaps", "v_snaps", "force_snaps"):
                    assert np.array_equal(getattr(got, name),
                                          getattr(want, name)[:n_steps + 1])


@pytest.mark.parametrize("n_steps", [255, 256, 257, 383, 384, 385])
def test_block_path_at_run_ends_inside_the_window(exp1, monkeypatch, n_steps):
    # k P - 1, k P and k P + 1 steps for P = 128, inside exp1's window of
    # 11515 nodes: a pass reads its scalars as table slices only when it
    # ends by n_steps, so the last full pass does at k P and k P + 1 and
    # does not at k P - 1; runs twice as long extend them bitwise
    ops, runs = window_runs(exp1, "zero")
    for framework, z0s in runs:
        short = assert_block_runs(monkeypatch, z0s, ops, exp1, framework, n_steps)
        long = integrate_ensemble(z0s, ops, exp1, framework, WIN_DT,
                                  2 * n_steps * WIN_DT)
        for got, want in zip(short, long):
            for name in ("u_snaps", "v_snaps", "force_snaps"):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)[:n_steps + 1])


def test_block_path_runs_where_it_applies(exp1, monkeypatch):
    calls = []
    blocks = evolution._integrate_blocks
    monkeypatch.setattr(evolution, "_integrate_blocks",
                        lambda *args: calls.append(1) or blocks(*args))

    def took_blocks(f, kernel, rows=1):
        model = make_model(4, f=f)
        if rows > 1:
            # (E, J) forcing rows, one per member
            model.g = np.linspace(-0.5, 0.5, rows * 4).reshape(rows, 4)
        z0 = draw_random_state(model, kernel, 1.0, "H1", np.random.default_rng(2))
        calls.clear()
        integrate_ensemble([z0] * rows, assemble(model, kernel), kernel, "history",
                           WIN_DT, 0.2)
        return bool(calls)

    # top = window nodes - 1 decides, not the run length of 100 steps
    top_is_block = (evolution.BLOCK + 1) * WIN_DT
    assert took_blocks("zero", exp1)
    assert took_blocks("zero", exp1_cut(top_is_block))
    assert not took_blocks("zero", exp1_cut(top_is_block - WIN_DT))
    assert not took_blocks("zero", triangle(WIN))
    assert not took_blocks("cubic", exp1)
    assert not took_blocks("zero", exp1, rows=3)


@pytest.mark.parametrize("lam2,u0,t_blow", [
    # a stiff mode, unstable at dt = 1e-2, leaves the guard in the third block
    (1e5, 1e-30, {"history": 0.6, "state": 0.91}),
    # ... or at step 4, and then overflows to inf and NaN before the block ends
    (1e30, 1e-300, {"history": 0.04, "state": 0.04})])
def test_block_path_blow_up_time_matches_stepwise(exp1, monkeypatch, lam2, u0, t_blow):
    lam = np.array([1.0, lam2])
    ops = linear_ops(lam)
    for framework, field in (("history", HistoryField), ("state", StateField)):
        z0 = ExtendedVector(ModalVector(np.array([1.0, u0]), lam),
                            ModalVector.zeros(lam), field.zeros(exp1, lam))
        times = []
        for block_path in (evolution._block_path, lambda ops, mf: False):
            monkeypatch.setattr(evolution, "_block_path", block_path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(BlowUpError) as exc:
                    integrate(z0, ops, exp1, framework, 1e-2, 5.0)
            times.append(exc.value.t)
        assert times[0] == times[1] == pytest.approx(t_blow[framework])


# -- history reconstruction ----------------------------------------------------

def test_reconstruct_eta_at_zero(exp1):
    lam = np.array([1.0])
    eta0 = history_from_profile(exp1, lam, lambda s: math.sin(s))
    z0 = ExtendedVector(ModalVector(np.array([0.3]), lam),
                        ModalVector.zeros(lam), eta0)
    traj = integrate(z0, linear_ops(lam), exp1, "history", 1e-2, 0.1)
    back = reconstruct_eta(traj, 0.0, exp1)
    assert np.allclose(back.values, eta0.values, atol=1e-14)


def test_reconstruct_eta_constant_trajectory(exp1):
    # f = 0, g = 0 with zero velocity and zero force: u frozen only if u = 0;
    # instead check the formula directly on a frozen snapshot array
    lam = np.array([1.0, 4.0])
    n = 20
    u = np.tile([0.7, -0.2], (n + 1, 1))
    traj = Trajectory(
        times=np.arange(n + 1) * 0.01, u_snaps=u, v_snaps=np.zeros_like(u),
        force_snaps=np.zeros_like(u),
        initial_memory=HistoryField.zeros(exp1, lam), window=exp1.s_max,
        framework="history", dt=0.01, kernel_id=exp1.kernel_id, lambdas=lam)
    eta = reconstruct_eta(traj, 0.2, exp1)
    assert np.allclose(eta.values, 0.0, atol=1e-15)


def test_reconstruct_eta_upwind_transport_oracle(exp1):
    # independent method-of-lines check: first-order upwind on the same grid
    lam = np.array([1.0])
    ops = linear_ops(lam)
    z0, _ = single_mode_state(exp1, 1.0, 0.0)
    dt, t_end = 5e-3, 1.0
    traj = integrate(z0, ops, exp1, "history", dt, t_end)
    nodes = exp1.grid
    ds = exp1.ds
    eta = np.zeros(nodes.size)
    c = dt / ds
    assert c <= 1.0
    for n in range(traj.n_steps):
        src = lam[0] * traj.v_snaps[n, 0]
        shifted = np.empty_like(eta)
        shifted[0] = eta[0] - c * (eta[0] - 0.0)
        shifted[1:] = eta[1:] - c * (eta[1:] - eta[:-1])
        eta = shifted + dt * src
    got = reconstruct_eta(traj, t_end, exp1).values[:, 0]
    sel = nodes < 5.0
    err = np.max(np.abs(got[sel] - eta[sel]))
    assert err < 10 * (dt + ds)


def test_reconstruct_eta_boundary_zero(exp1):
    z0, lam = single_mode_state(exp1)
    traj = integrate(z0, linear_ops(lam), exp1, "history", 1e-2, 2.0)
    eta = reconstruct_eta(traj, 2.0, exp1)
    # eta(0+) = 0 for bounded sources: first node value is O(ds)
    assert abs(eta.values[0, 0]) < 5 * exp1.ds


def test_representation_shift_consistency(exp1):
    # eta at t+h equals the translate of eta at t corrected by new increments
    z0, lam = single_mode_state(exp1, 0.8, 0.1)
    dt = 1e-2
    traj = integrate(z0, linear_ops(lam), exp1, "history", dt, 2.0)
    t, h = 1.0, 0.2
    eta_t = reconstruct_eta(traj, t, exp1)
    eta_th = reconstruct_eta(traj, t + h, exp1)
    base = right_translate(eta_t, h)
    nodes = base.nodes
    P = lam * traj.u_snaps
    Pt = P[traj.index_of(t)]
    Pth = P[traj.index_of(t + h)]
    base.values[nodes > h] += (Pth - Pt)[None, :]
    recent = nodes <= h
    from memoryflow.evolution import _interp_many
    base.values[recent] = Pth[None, :] - _interp_many(
        P, (t + h - nodes[recent]) / dt)
    assert np.allclose(base.values, eta_th.values, atol=1e-12)


def masked_reconstruct_eta(traj, t, kernel):
    # reference: the grid split into s <= t and s > t by boolean masks
    idx = traj.index_of(t)
    nodes = kernel.grid
    eta0 = traj.initial_memory
    out = HistoryField.zeros(kernel, traj.lambdas)
    past = nodes <= t
    future = ~past
    if isinstance(eta0, HistoryField) and np.any(eta0.values) and np.any(future):
        pts = nodes[future] - t
        for j in range(traj.lambdas.size):
            out.values[future, j] = np.interp(pts, eta0.nodes, eta0.values[:, j],
                                              left=eta0.values[0, j], right=0.0)
    # the primitive of the memory source at every snapshot
    P = traj.lambdas * traj.u_snaps
    Pt = P[idx]
    out.values[past] = Pt[None, :] - evolution._interp_many(
        P, (t - nodes[past]) / traj.dt)
    out.values[future] += (Pt - P[0])[None, :]
    return out.values


@pytest.mark.parametrize("initial", ["zero", "profile"])
def test_reconstruct_eta_slices_match_masks(initial):
    # dyadic steps: ds = 2 dt, so t = 3 dt is the grid node 1.5 ds exactly
    dt = 2.0 ** -6
    kernel = make_exponential_kernel(1.0, ds=2 * dt, s_max=1.0)
    lam = np.array([1.0, 4.0])
    eta0 = HistoryField.zeros(kernel, lam)
    if initial == "profile":
        eta0 = history_from_profile(
            kernel, lam, lambda s: [math.sin(3.0 * s) + 0.5, math.exp(-s)])
    z0 = ExtendedVector(ModalVector(np.array([0.7, -0.3]), lam),
                        ModalVector(np.array([0.2, 0.5]), lam), eta0)
    traj = integrate(z0, linear_ops(lam), kernel, "history", dt, 1.5)
    nodes = kernel.grid
    on_node, between, past_s_max = 3 * dt, 4 * dt, 1.5
    assert np.any(nodes == on_node) and not np.any(nodes == between)
    assert nodes[-1] < past_s_max
    for t in (0.0, on_node, between, 0.5, past_s_max):
        got = reconstruct_eta(traj, t, kernel).values
        assert got.tobytes() == masked_reconstruct_eta(traj, t, kernel).tobytes()


@pytest.mark.parametrize("initial", ["zero", "profile"])
def test_state_at_values_are_read_only_and_those_of_reconstruct_eta(initial):
    dt = 2.0 ** -6
    kernel = make_exponential_kernel(1.0, ds=2 * dt, s_max=1.0)
    lam = np.array([1.0, 4.0])
    eta0 = HistoryField.zeros(kernel, lam)
    if initial == "profile":
        eta0 = history_from_profile(
            kernel, lam, lambda s: [math.sin(3.0 * s) + 0.5, math.exp(-s)])
    z0 = ExtendedVector(ModalVector(np.array([0.7, -0.3]), lam),
                        ModalVector(np.array([0.2, 0.5]), lam), eta0)
    traj = integrate(z0, linear_ops(lam), kernel, "history", dt, 1.5)
    for t in (0.0, 3 * dt, 4 * dt, 0.5, 1.5):
        mem = traj.state_at(t, kernel).memory
        want = reconstruct_eta(traj, t, kernel)
        assert want.values.flags.writeable
        assert not mem.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mem.values[0, 0] = 1.0
        assert mem.values.tobytes() == want.values.tobytes()
        for field in (mem.copy(), mem + want, mem - want):
            assert field.blocks is None and field.values.flags.writeable
        copy = mem.copy()
        copy.values[0, 0] += 1.0
        assert mem.values.tobytes() == want.values.tobytes()


def test_interp_columns_is_np_interp_per_column():
    # knots on the grid, points on knots, between them, before the first
    # knot (left = the column's first value) and past the last (right = 0.0)
    rng = np.random.default_rng(17)
    for trial in range(40):
        n, J = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        xp = np.sort(rng.uniform(0.0, 3.0, n)) if trial % 2 else (np.arange(n) + 0.5) * 0.1
        xp = np.unique(xp)
        fp = rng.normal(size=(xp.size, J))
        fp[rng.random(fp.shape) < 0.1] = -0.0
        x = np.concatenate([xp, rng.uniform(xp[0] - 1.0, xp[-1] + 1.0, 40),
                            [xp[0] - 0.5, xp[-1] + 0.5, xp[-1]]])
        got = evolution._interp_columns(x, xp, fp)
        want = np.empty_like(got)
        for j in range(J):
            want[:, j] = np.interp(x, xp, fp[:, j], left=fp[0, j], right=0.0)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[x < xp[0]] == fp[0]) and np.all(got[x > xp[-1]] == 0.0)


@pytest.mark.parametrize("initial", ["zero", "profile"])
def test_norm_of_a_blocked_state_is_that_of_reconstruct_eta(initial):
    # state_at's blocked field against reconstruct_eta's formed one, at t = 0,
    # inside the window, on a node and past s_max, for a member of a batch;
    # the kernel is exp1 cut at s_max = 1 so that t = 1.5 is past it
    dt = 2.0 ** -6
    kernel = make_exponential_kernel(1.0, ds=2 * dt, s_max=1.0)
    model = make_model(3, f="cubic", g=[0.4, 0.0, -0.2])
    lam = model.lambdas
    z0s = [draw_random_state(model, kernel, 1.0, "H1", np.random.default_rng([8, e]))
           for e in range(3)]
    if initial == "profile":
        z0s[1].memory = history_from_profile(
            kernel, lam, lambda s: [math.sin(3.0 * s) + 0.5, math.exp(-s), 0.2])
    trajs = integrate_ensemble(z0s, assemble(model, kernel), kernel, "history", dt, 1.5)
    assert kernel.grid[-1] < 1.5
    for traj in trajs:
        for t in (0.0, 3 * dt, 4 * dt, 0.5, 1.5):
            z = traj.state_at(t, kernel)
            assert z.memory.blocks is not None
            zr = ExtendedVector(z.u, z.v, reconstruct_eta(traj, t, kernel))
            for sigma in (0.0, 1.0 / 3.0, 1.0):
                assert norm_H(z, sigma) == norm_H(zr, sigma)


def test_norm_of_a_state_trajectory_state_reads_its_snapshots_and_xi(exp1):
    model = make_model(4, f="cubic")
    lam = model.lambdas
    z0 = draw_random_state(model, exp1, 1.0, "H1", np.random.default_rng(3))
    z0 = ExtendedVector(z0.u, z0.v, lambda_map(z0.memory, exp1))
    traj = integrate(z0, assemble(model, exp1), exp1, "state", 1e-2, 0.5)
    for t in (0.0, 0.2, 0.5):
        idx = traj.index_of(t)
        u, v = traj.u_snaps[idx], traj.v_snaps[idx]
        xi = reconstruct_xi(traj, t, exp1)
        zr = ExtendedVector(ModalVector(u, lam), ModalVector(v, lam), xi)
        for sigma in (0.0, 1.0 / 3.0, 1.0):
            got = norm_H(traj.state_at(t, exp1), sigma)
            assert got == norm_H(zr, sigma)
            want = (np.sum(lam ** (sigma + 1) * u ** 2) + np.sum(lam ** sigma * v ** 2)
                    + np.sum(xi.weights * (xi.values ** 2 @ lam ** (sigma - 1))))
            assert got ** 2 == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("framework", ["history", "state"])
def test_state_at_refuses_off_grid_times_and_its_norm_a_sigma_past_one(exp1, framework):
    lam = np.array([1.0])
    mem = (HistoryField if framework == "history" else StateField).zeros(exp1, lam)
    z0 = ExtendedVector(ModalVector(np.array([0.5]), lam), ModalVector.zeros(lam), mem)
    traj = integrate(z0, linear_ops(lam), exp1, framework, 1e-2, 0.2)
    for t in (0.015, -0.01, 0.21):
        with pytest.raises(ValueError, match="off the time grid"):
            traj.state_at(t, exp1)
    with pytest.raises(ValueError, match="sigma"):
        norm_H(traj.state_at(0.1, exp1), 2)


# -- state reconstruction --------------------------------------------------------

def test_reconstruct_xi_at_zero(exp1):
    lam = np.array([1.0])
    xi0 = StateField.zeros(exp1, lam)
    xi0.values[:, 0] = np.asarray(exp1.mu(xi0.nodes))
    z0 = ExtendedVector(ModalVector(np.array([0.4]), lam),
                        ModalVector.zeros(lam), xi0)
    traj = integrate(z0, linear_ops(lam), exp1, "state", 1e-2, 0.1)
    back = reconstruct_xi(traj, 0.0, exp1)
    assert np.allclose(back.values, xi0.values, atol=1e-12)


def test_reconstruct_xi_pure_shift(exp1):
    # v stays zero when u = v = 0 and xi0 decays: force acts, so instead use
    # zero (u, v) with a nonzero xi0 and f = 0: v no longer stays zero.
    # Freeze the trajectory by hand to test the shift in isolation.
    lam = np.array([1.0])
    xi0 = StateField.zeros(exp1, lam)
    xi0.values[:, 0] = np.asarray(exp1.mu(xi0.nodes))
    n = 30
    dt = 0.01
    traj = Trajectory(
        times=np.arange(n + 1) * dt,
        u_snaps=np.zeros((n + 1, 1)), v_snaps=np.zeros((n + 1, 1)),
        force_snaps=np.zeros((n + 1, 1)), initial_memory=xi0,
        window=exp1.s_max, framework="state", dt=dt,
        kernel_id=exp1.kernel_id, lambdas=lam)
    t = 0.3
    xi_t = reconstruct_xi(traj, t, exp1)
    expect = np.asarray(exp1.mu(xi_t.nodes + t))
    sel = xi_t.nodes < 15.0
    assert np.allclose(xi_t.values[sel, 0], expect[sel], rtol=1e-3, atol=1e-12)


def test_xi_integral_swap_oracle(exp1):
    # int_0^inf xi^t = int_t^inf xi0 + int_0^t k(s) a(t-s) ds
    lam = np.array([1.0])
    ops = linear_ops(lam)
    z0 = ExtendedVector(ModalVector(np.array([1.0]), lam),
                        ModalVector.zeros(lam), StateField.zeros(exp1, lam))
    dt = 2e-3
    traj = integrate(z0, ops, exp1, "state", dt, 2.0)
    t = 2.0
    xi_t = reconstruct_xi(traj, t, exp1)
    lhs = np.sum(xi_t.values[:, 0]) * exp1.ds
    idx = traj.index_of(t)
    a = lam[0] * traj.v_snaps[:idx + 1, 0]
    ks = np.asarray(exp1.k(np.arange(idx + 1) * dt))
    w = np.full(idx + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    rhs = float(np.sum(w * ks * a[::-1]))
    assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-6)


def direct_xi(traj, t, kernel):
    # xi0(tau + t) plus the trapezoid sum of mu(tau + k dt) a(t - k dt),
    # one term per snapshot, in a field with the same tail clamp
    idx, dt = traj.index_of(t), traj.dt
    xi0, tau = traj.initial_memory, kernel.grid
    out = np.empty((tau.size, traj.lambdas.size))
    for j in range(traj.lambdas.size):
        out[:, j] = np.interp(tau + t, xi0.nodes, xi0.values[:, j],
                              left=xi0.values[0, j], right=0.0)
    for k in range(idx + 1 if idx > 0 else 0):
        wt = 0.5 * dt if k in (0, idx) else dt
        a = traj.lambdas * traj.v_snaps[idx - k]
        out += wt * np.asarray(kernel.mu(tau + k * dt))[:, None] * a
    return StateField(tau, out, kernel.nu(tau) * kernel.ds, traj.lambdas, kernel.ds)


def test_reconstruct_xi_matches_direct_sum(exp1):
    triangle = make_tabulated_kernel([0.0, 1.0], [6.0, 0.0], theta=1.0,
                                     delta_decay=1.0)
    # e^(-2s) on [0, 1], scaled to unit first moment, and zero past it,
    # where the read-back reaches
    cut = MemoryKernel([0.0], 4.0, 2.0, 0.0, end=1.0, theta=1.0, delta_decay=2.0,
                       kernel_id="cut")
    # exp1 states its rate, so its read-back is separable at every dt,
    # ds/dt = 5 or 10/3; the triangle and the cut exponential state none
    for kernel, dt, separable in ((exp1, 2e-3, True), (triangle, 2e-3, False),
                                  (exp1, 3e-3, True), (cut, 2e-3, False)):
        assert (kernel.rate is not None) == separable
        model = make_model(3, f="cubic", g=[0.5, 0.0, 0.3])
        ops = assemble(model, kernel)
        z0 = draw_random_state(model, kernel, 1.0, "H1", np.random.default_rng(8),
                               framework="state")
        z0.memory.values[:] = np.outer(kernel.mu_grid * np.cos(z0.memory.nodes),
                                       [1.0, -0.5, 0.2])
        n = 150
        short = integrate(z0, ops, kernel, "state", dt, n * dt)
        long = integrate(z0, ops, kernel, "state", dt, 2 * n * dt)
        for idx in (0, 1, 2, 77, n):
            t = idx * dt
            got = reconstruct_xi(short, t, kernel)
            want = direct_xi(short, t, kernel)
            # the absolute floor covers entries where xi0 and the sum cancel
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12,
                                       atol=1e-15 * np.abs(want.values).max())
            assert np.array_equal(got.weights, want.weights)
            # prefix property: the path does not depend on the run length
            assert np.array_equal(got.values,
                                  reconstruct_xi(long, t, kernel).values)


def test_readback_at_a_fractional_step_ratio_is_rank_one(monkeypatch):
    # ds/dt = 10/3 at dt = 3e-3: mu(tau + k dt) = mu(tau) q^k still holds,
    # so the read-back evaluates no n_tau x (t/dt) matrix of mu
    kernel = make_exponential_kernel(1.0)
    model = make_model(3, f="cubic")
    z0 = draw_random_state(model, kernel, 1.0, "H1", np.random.default_rng(6),
                           framework="state")
    traj = integrate(z0, assemble(model, kernel), kernel, "state", 3e-3, 0.3)
    calls = record_kernel_calls(kernel, monkeypatch)
    reconstruct_xi(traj, 0.3, kernel)
    assert sum(np.prod(shape) for shape in calls["mu"]) <= kernel.grid.size


@pytest.mark.parametrize("framework", ["history", "state"])
def test_returned_batch_holds_u_v_and_force_only(framework):
    # a trajectory keeps its (n+1, J) rows of u, v and F: about 3.1 arrays
    # of (E, n+1, J) with the grid and the initial memory, where u, v, F and
    # the two stored memory sources were 5.1.  The run takes the block path,
    # which stores no memory-source array, so it peaks below 3.5 arrays
    # (u, v, F, a pass's step matrices and the kernel tables)
    kernel = make_exponential_kernel(2.0)
    model = make_model(32, f="zero")
    lam = model.lambdas
    mem = HistoryField if framework == "history" else StateField
    z0s = [ExtendedVector(ModalVector(np.full(32, 0.1), lam), ModalVector.zeros(lam),
                          mem.zeros(kernel, lam)) for _ in range(2)]
    ops = assemble(model, kernel)
    n_steps, dt = 14000, 1e-3
    array_bytes = len(z0s) * (n_steps + 1) * lam.size * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trajs = integrate_ensemble(z0s, ops, kernel, framework, dt, n_steps * dt)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert trajs[0].n_steps == n_steps
    assert 3.0 < held / array_bytes < 3.5
    assert peak / array_bytes < 3.5


# -- cross-framework and structural properties -----------------------------------

def test_force_agrees_across_bridged_representations(exp1):
    # int xi dtau == int mu(s) eta(s) ds when xi is the bridged history
    z0, lam = single_mode_state(exp1, 1.0, 0.4)
    traj = integrate(z0, linear_ops(lam), exp1, "history", 2e-3, 2.0)
    eta = reconstruct_eta(traj, 2.0, exp1)
    xi = lambda_map(eta, exp1)
    mu_w = np.asarray(exp1.mu(eta.nodes))
    f_eta = float((mu_w @ eta.values[:, 0]) * eta.ds)
    f_xi = float(np.sum(xi.values[:, 0]) * exp1.ds)
    assert f_xi == pytest.approx(f_eta, rel=1e-3, abs=1e-8)


def test_framework_equivalence_with_memory(exp1):
    # nonzero initial history; state run started from its bridge image
    lam = np.array([1.0])
    ops = linear_ops(lam)
    eta0 = history_from_profile(exp1, lam, lambda s: 1.0 - math.exp(-s))
    z0 = ExtendedVector(ModalVector(np.array([0.5]), lam),
                        ModalVector(np.array([-0.2]), lam), eta0)
    dt = 2e-3
    traj_h = integrate(z0, ops, exp1, "history", dt, 3.0)
    z0s = ExtendedVector(z0.u.copy(), z0.v.copy(), lambda_map(eta0, exp1))
    traj_s = integrate(z0s, ops, exp1, "state", dt, 3.0)
    err = np.max(np.abs(traj_h.u_snaps - traj_s.u_snaps))
    assert err < 5e-4


def test_intertwine_zero(exp1):
    lam = np.array([1.0])
    z0 = ExtendedVector(ModalVector.zeros(lam), ModalVector.zeros(lam),
                        HistoryField.zeros(exp1, lam))
    res = intertwine_residual(z0, linear_ops(lam), exp1, 1.0, 1e-2, n_samples=3)
    assert res == 0.0


def test_intertwine_refinement(exp1):
    z0, lam = single_mode_state(exp1)
    ops = linear_ops(lam)
    r_coarse = intertwine_residual(z0, ops, exp1, 2.0, 8e-3, n_samples=4)
    r_fine = intertwine_residual(z0, ops, exp1, 2.0, 4e-3, n_samples=4)
    assert r_fine < r_coarse
    assert math.log2(r_coarse / r_fine) > 0.9


def test_superposition_linear(exp1):
    lam = np.array([1.0, 4.0])
    ops = linear_ops(lam)
    rng = np.random.default_rng(2)
    mk = lambda: ExtendedVector(
        ModalVector(rng.normal(size=2), lam),
        ModalVector(rng.normal(size=2), lam),
        HistoryField.zeros(exp1, lam))
    z1, z2 = mk(), mk()
    dt = 1e-2
    t1 = integrate(z1, ops, exp1, "history", dt, 1.0)
    t2 = integrate(z2, ops, exp1, "history", dt, 1.0)
    t12 = integrate(z1 + z2, ops, exp1, "history", dt, 1.0)
    gap = np.max(np.abs(t12.u_snaps - t1.u_snaps - t2.u_snaps))
    assert gap < 1e-12


def test_window_truncation_bound(exp1):
    z0, lam = single_mode_state(exp1)
    ops = linear_ops(lam)
    dt = 5e-3
    full = integrate(z0, ops, exp1, "history", dt, 6.0)
    kernel = exp1_cut(4.0)
    cut = integrate(single_mode_state(kernel)[0], ops, kernel, "history", dt, 6.0)
    gap = np.max(np.abs(full.u_snaps - cut.u_snaps))
    # truncation error is controlled by theta*exp(-delta*s_max)
    bound = 50 * exp1.theta * math.exp(-exp1.delta_decay * 4.0)
    assert gap < bound


def test_blowup_guard(exp1):
    lam = np.array([1.0])
    # explosive right-hand side
    ops = ModelOperators(lam, np.ones(1), f=lambda u: -(u ** 3) * 1e3)
    z0 = ExtendedVector(ModalVector(np.array([2.0]), lam),
                        ModalVector.zeros(lam), HistoryField.zeros(exp1, lam))
    with pytest.raises(BlowUpError, match="blow-up detected at t="):
        integrate(z0, ops, exp1, "history", 1e-2, 50.0)


def test_blowup_guard_catches_nan(exp1):
    lam = np.array([1.0])
    # a right-hand side that turns NaN at once, never exceeding the guard
    ops = ModelOperators(lam, np.zeros(1), f=lambda u: np.full_like(u, np.nan))
    z0 = ExtendedVector(ModalVector(np.array([0.5]), lam),
                        ModalVector.zeros(lam), HistoryField.zeros(exp1, lam))
    with pytest.raises(BlowUpError, match="blow-up detected at t=0.01"):
        integrate(z0, ops, exp1, "history", 1e-2, 1.0)


def test_holder_probe_degenerate(exp1):
    z0, lam = single_mode_state(exp1)
    fit = holder_growth_probe(z0, z0.copy(), linear_ops(lam), exp1,
                              "history", 1.0, 1e-2, n_samples=5)
    assert fit.degenerate


def test_holder_probe_linear_contraction(exp1):
    z0, lam = single_mode_state(exp1, 1.0, 0.0)
    z1, _ = single_mode_state(exp1, 1.001, 0.0)
    fit = holder_growth_probe(z0, z1, linear_ops(lam), exp1,
                              "history", 8.0, 5e-3, n_samples=10)
    assert not fit.degenerate
    assert fit.rate <= 0.0


def test_trajectory_csv(tmp_path, exp1):
    z0, lam = single_mode_state(exp1)
    traj = integrate(z0, linear_ops(lam), exp1, "history", 1e-2, 0.2)
    p = tmp_path / "traj.csv"
    save_trajectory_csv(traj, p)
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert data.shape == (traj.n_steps + 1, 3)
    assert np.array_equal(data[:, 1], traj.u_snaps[:, 0])
