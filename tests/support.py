"""Shared helpers for the test suite."""

import math

import numpy as np

from memoryflow.spaces import ExtendedVector, HistoryField, ModalVector


def random_smooth_history(kernel, lambdas, rng, n_terms=3):
    """Smooth random field: a few decaying polynomial-exponential profiles."""
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


def direct_history_force(mf, n, P):
    # the trapezoid sum over the whole window, evaluated from scratch
    m = min(n, mf.w_nodes)
    dt, mu = mf.dt, mf.mu_dt
    conv = np.zeros_like(P[:, 0])
    for i in range(1, m + 1):
        wt = 0.5 * mu[i] if i == m else mu[i]
        conv += dt * wt * (P[:, n] - P[:, n - i])
    return conv + mf.k_dt[m] * (P[:, n] - P[:, n - m])


def direct_state_force(mf, n, a):
    m = min(n, mf.w_nodes)
    dt, k = mf.dt, mf.k_dt
    conv = np.zeros_like(a[:, 0])
    for i in range(m + 1):
        wt = 0.5 * k[i] if i in (0, m) else k[i]
        conv += dt * wt * a[:, n - i]
    return conv if m > 0 else np.zeros_like(a[:, 0])


def record_kernel_calls(kernel, monkeypatch):
    """Wrap kernel.mu and kernel.mu_prime so that each records the shape of
    every argument it is called on; returns {"mu": [...], "mu_prime": [...]}."""
    calls = {"mu": [], "mu_prime": []}
    for name, shapes in calls.items():
        f = getattr(kernel, name)
        monkeypatch.setattr(kernel, name,
                            lambda s, f=f, shapes=shapes: shapes.append(np.shape(s)) or f(s))
    return calls
