"""Brute-force reference implementations used only by the test suite.

Everything here evaluates the defining formulas literally: dense matrix
powers, explicit noise-multiplier products per leaf, and exact tree
averages.  Slow on purpose, for small trees only.
"""

import numpy as np

from slqheat.noise import tree_condexp


def dense_a0(space, tau):
    """Dense one-step operator (M + tau A)^{-1} M."""
    return np.linalg.solve(space.mass + tau * space.stiffness, space.mass)


def _a0_powers(space, tau, n_max):
    A0 = dense_a0(space, tau)
    powers = [np.eye(space.dim)]
    for _ in range(n_max):
        powers.append(A0 @ powers[-1])
    return powers


def _multiplier(driver, k_from, k_to, linear=True):
    """prod_{k = k_from..k_to} (1 + dW_k) per leaf (empty product = 1)."""
    n_leaves = driver.n_scenarios(driver.grid.n_steps)
    out = np.ones(n_leaves)
    if not linear:
        return out
    for k in range(k_from, k_to + 1):
        out = out * (1.0 + driver.pathwise_increment(k))
    return out


def literal_gamma(space, driver, x0, linear=True):
    """Pathwise Gamma x0 at every node time, list of (n_leaves, d) arrays."""
    grid = driver.grid
    N, tau = grid.n_steps, grid.tau
    P = _a0_powers(space, tau, N)
    out = []
    for n in range(N + 1):
        m = _multiplier(driver, 1, n, linear)
        out.append(m[:, None] * (P[n] @ x0))
    return out


def literal_l(space, driver, control, linear=True):
    """Pathwise L U at every node time from the defining sum."""
    grid = driver.grid
    N, tau = grid.n_steps, grid.tau
    P = _a0_powers(space, tau, N)
    u_path = [driver.to_pathwise(control.at(j), j) for j in range(N)]
    out = []
    for n in range(N + 1):
        acc = np.zeros_like(u_path[0])
        for j in range(n):
            m = _multiplier(driver, j + 2, n, linear)
            acc += m[:, None] * (u_path[j] @ P[n - j].T)
        out.append(tau * acc)
    return out


def literal_f(space, driver, sigma, linear=True):
    """Pathwise inhomogeneous part at every node time."""
    grid = driver.grid
    N, tau = grid.n_steps, grid.tau
    P = _a0_powers(space, tau, N)
    n_leaves = driver.n_scenarios(N)
    out = []
    for n in range(N + 1):
        acc = np.zeros((n_leaves, space.dim))
        for j in range(n):
            m = _multiplier(driver, j + 2, n, linear)
            dw = driver.pathwise_increment(j + 1)
            acc += (m * dw)[:, None] * (P[n - j] @ sigma[j])
        out.append(acc)
    return out


def literal_l_adjoint(space, driver, xi, linear=True):
    """(L* xi)(t_j) as exact tree conditional expectations, j = 0..N-1."""
    grid = driver.grid
    N, tau = grid.n_steps, grid.tau
    P = _a0_powers(space, tau, N)
    out = []
    for j in range(N):
        acc = np.zeros((driver.n_scenarios(N), space.dim))
        for n in range(j + 1, N + 1):
            m = _multiplier(driver, j + 2, n, linear)
            acc += m[:, None] * (driver.to_pathwise(xi.at(n), n) @ P[n - j].T)
        out.append(tau * tree_condexp(acc, N, j))
    return out


def literal_lhat_adjoint(space, driver, eta, linear=True):
    """(Lhat* eta)(t_j) as exact tree conditional expectations, j = 0..N-1."""
    grid = driver.grid
    N, tau = grid.n_steps, grid.tau
    P = _a0_powers(space, tau, N)
    eta_path = driver.to_pathwise(np.asarray(eta), N)
    out = []
    for j in range(N):
        m = _multiplier(driver, j + 2, N, linear)
        acc = m[:, None] * (eta_path @ P[N - j].T)
        out.append(tree_condexp(acc, N, j))
    return out


def literal_k_htau(space, driver, alpha, state, linear=True):
    """Gradient kernel -L*(X) - alpha Lhat*(X_N) from the literal adjoints."""
    xi = state  # slices 1..N are read by literal_l_adjoint
    lstar = literal_l_adjoint(space, driver, xi, linear)
    lhat = literal_lhat_adjoint(space, driver, state.at(driver.grid.n_steps), linear)
    return [-(a + alpha * b) for a, b in zip(lstar, lhat)]


def tree_expectation(driver, pathwise_values):
    """Exact expectation of leaf-level data (plain average)."""
    return tree_condexp(np.asarray(pathwise_values), driver.grid.n_steps, 0)[0]


def pairing_state(space, driver, proc_a_path, proc_b_path, tau):
    """tau-weighted state pairing sum_{n=1..N} E <a_n, b_n>_M from pathwise slices."""
    total = 0.0
    for n in range(1, len(proc_a_path)):
        inner = ((proc_a_path[n] @ space.mass) * proc_b_path[n]).sum(axis=1)
        total += tau * inner.mean()
    return total


def regression_features(space, driver, state, n, n_modes=4):
    """Regression basis [1, xhat_1, ..., xhat_m, W(t_n)] on an ensemble slice.

    Verbatim copy of the basis of the former ``RegressionCondexp``
    estimator (m = min(n_modes, d) leading eigenbasis coordinates of the
    state), kept as the equivalence oracle for ``adjoint.condexp``.
    """
    cols = [np.ones(driver.n_scenarios(n))]
    m = min(n_modes, space.dim)
    coords = space.to_eigen(state.at(n))[:, :m]
    cols.extend(coords.T)
    cols.append(driver.brownian(n))
    return np.column_stack(cols)


def regression_condexp(space, driver, state, targets, n, ridge=1e-10):
    """Ensemble E[targets | F_n]: ridge normal equations on regression_features."""
    F = regression_features(space, driver, state, n)
    Y = np.asarray(targets, dtype=float)
    gram = F.T @ F + ridge * np.eye(F.shape[1])
    return F @ np.linalg.solve(gram, F.T @ Y)
