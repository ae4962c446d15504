"""Brute-force reference implementations used only by the test suite.

Everything here evaluates the defining formulas literally: dense matrix
powers, explicit noise-multiplier products per leaf, and exact tree
averages.  Slow on purpose, for small trees only.

The library's processes hold eigen coordinates; every oracle here works
on nodal coefficient vectors with the mass matrix M, and ``nodal``
converts a library process for comparison.  ``nodal_forward``,
``nodal_backward_kernel`` and the ``nodal_*`` adjoint objects are the
nodal sweeps of the library with A0 as the dense matrix
(M + tau A)^{-1} M, kept as the equivalence oracle of the eigen-coordinate
sweeps.
"""

import numpy as np

from slqheat.forward import AdaptedProcess
from slqheat.noise import tree_condexp


def dense_a0(space, tau):
    """Dense one-step operator (M + tau A)^{-1} M."""
    return np.linalg.solve(space.mass + tau * space.stiffness, space.mass)


def nodal(space, proc):
    """A library process (eigen coordinates) with every slice in nodal values."""
    return proc.map(space.from_eigen)


# -- nodal norms and evaluation -----------------------------------------------


def discrete_laplacian_apply(space, v):
    """Apply Laplace_h = -M^{-1} A to nodal coefficients (single or batch)."""
    v = np.asarray(v, dtype=float)
    return -np.linalg.solve(space.mass, (v @ space.stiffness).T).T


def l2_norm(space, v):
    """Discrete L2 norm sqrt(v^T M v) of one coefficient vector."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(v @ space.mass @ v))


def l2_norm_sq_batch(space, v):
    """Squared L2 norms of a batch of coefficient vectors, shape (n,)."""
    v = np.atleast_2d(np.asarray(v, dtype=float))
    return ((v @ space.mass) * v).sum(axis=1)


def l2_inner(space, u, v):
    """M-inner product of two coefficient vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u @ space.mass @ v)


def h1_seminorm(space, v):
    """Discrete H1 seminorm sqrt(v^T A v)."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(v @ space.stiffness @ v))


def eval_fem(space, v, x):
    """Evaluate the P1 function with interior coefficients v at points x."""
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    full = np.concatenate(([0.0], v, [0.0]))
    grid = np.linspace(0.0, 1.0, space.n_elems + 1)
    return np.interp(x, grid, full)


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


def pairing_state(driver, proc_a_path, proc_b_path, tau):
    """tau-weighted state pairing sum_{n=1..N} E <a_n, b_n> from pathwise slices.

    The slices are eigen coordinates, where the L2 pairing is euclidean.
    """
    total = 0.0
    for n in range(1, len(proc_a_path)):
        inner = (proc_a_path[n] * proc_b_path[n]).sum(axis=1)
        total += tau * inner.mean()
    return total


def regression_features(space, driver, state, n, n_modes=4):
    """Regression basis [1, xhat_1, ..., xhat_m, W(t_n)] on an ensemble slice.

    Verbatim copy of the basis of the former ``RegressionCondexp``
    estimator (m = min(n_modes, d) leading eigenbasis coordinates of the
    state), kept as the equivalence oracle for ``adjoint.condexp``.
    ``state`` holds nodal slices.
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


# -- the nodal sweeps ---------------------------------------------------------


def _control_slice(control, n, t, x_slice):
    if control is None:
        return None
    if isinstance(control, AdaptedProcess):
        return control.at(n)
    return control(t, x_slice)


def nodal_forward(data, driver, x0, control, sigma, return_control=False):
    """Forward recursion on nodal coefficients; x0/control/sigma may be None."""
    space, grid = data.space, data.grid
    N, tau = grid.n_steps, grid.tau
    d = space.dim
    linear = data.noise == "linear"
    A0 = dense_a0(space, tau)

    first = np.broadcast_to(np.zeros(d) if x0 is None else x0, (driver.n_scenarios(0), d))
    values = [np.array(first, dtype=float)]
    realized = [] if return_control else None
    for n in range(N):
        xn = values[n]
        un = _control_slice(control, n, grid.nodes[n], xn)
        if realized is not None:
            realized.append(
                np.zeros((driver.n_scenarios(n), d)) if un is None
                else np.array(np.broadcast_to(un, xn.shape), dtype=float)
            )
        par = driver.child_expand(xn, n)
        dw = driver.increments_at(n + 1)[:, None]
        if linear:
            rhs = par * (1.0 + dw)
        else:
            rhs = par.copy()
        if un is not None:
            rhs += tau * driver.child_expand(np.broadcast_to(un, xn.shape), n)
        if sigma is not None:
            rhs += sigma[n] * dw
        values.append(rhs @ A0.T)
    proc = AdaptedProcess(driver, 0, values)
    if return_control:
        return proc, AdaptedProcess(driver, 0, realized)
    return proc


def nodal_solve_forward(data, driver, control=None):
    """Nodal state recursion from the problem's initial datum."""
    return nodal_forward(data, driver, data.x0, control, data.sigma)


def nodal_backward_kernel(data, driver, v_at, eta, product_offset):
    """Pathwise backward recursion on nodal coefficients (see forward.backward_kernel)."""
    space, grid = data.space, data.grid
    N, tau = grid.n_steps, grid.tau
    d = space.dim
    linear = data.noise == "linear"
    A0 = dense_a0(space, tau)
    if product_offset not in (1, 2):
        raise ValueError(f"product_offset must be 1 or 2, got {product_offset}")

    if eta is None:
        G = np.zeros((driver.n_scenarios(N), d))
    else:
        G = np.array(driver.to_pathwise(np.asarray(eta, dtype=float), N))
        if G.ndim == 1:
            G = np.broadcast_to(G, (driver.n_scenarios(N), d)).copy()
    for n in range(N - 1, -1, -1):
        vn1 = v_at(n + 1) if v_at is not None else None
        if product_offset == 2:
            if linear and n <= N - 2:
                G = G * (1.0 + driver.pathwise_increment(n + 2))[:, None]
            if vn1 is not None:
                G = G + driver.to_pathwise(vn1, n + 1)
        else:
            if vn1 is not None:
                G = G + driver.to_pathwise(vn1, n + 1)
            if linear:
                G = G * (1.0 + driver.pathwise_increment(n + 1))[:, None]
        G = G @ A0.T
        yield n, G


def nodal_condexp(data, driver, values, level, n, state=None):
    """E[values | F_n]: subtree means on trees, regression on a nodal ensemble state."""
    if driver.kind == "tree":
        return tree_condexp(values, level, n)
    return regression_condexp(data.space, driver, state, values, n)


def nodal_k_htau(data, driver, state):
    """Gradient kernel slices n = 0..N-1 of a nodal state process."""
    tau, alpha, N = data.grid.tau, data.alpha, data.grid.n_steps
    v_at = lambda n: -tau * state.at(n)
    eta = -alpha * np.asarray(state.at(N))
    out = [None] * N
    for n, G in nodal_backward_kernel(data, driver, v_at, eta, product_offset=2):
        out[n] = nodal_condexp(data, driver, G, N, n, state)
    return out


def nodal_implicit_euler_bsde(data, driver, state):
    """Backward-equation slices (Y0 over 0..N, Zbar0 over 0..N-1) of a nodal state."""
    N, tau = data.grid.n_steps, data.grid.tau
    v_at = lambda n: -tau * state.at(n)
    terminal = -data.alpha * np.asarray(state.at(N))
    y_vals = [None] * (N + 1)
    y_vals[N] = np.array(terminal)
    for n, G in nodal_backward_kernel(data, driver, v_at, terminal, product_offset=1):
        y_vals[n] = nodal_condexp(data, driver, G, N, n, state)
    z_vals = [None] * N
    for n in range(N):
        mart = y_vals[n + 1] - tau * np.asarray(state.at(n + 1))
        dw = driver.increments_at(n + 1)[:, None]
        z_vals[n] = nodal_condexp(data, driver, mart * dw, n + 1, n, state) / tau
    return y_vals, z_vals


def nodal_bsde_residual(data, driver, state, y_vals, z_vals):
    """Largest M-norm defect of (I - tau Laplace_h) Y0(t_n) = E[...] on nodal slices."""
    space, N, tau = data.space, data.grid.n_steps, data.grid.tau
    worst = 0.0
    for n in range(N):
        lhs = y_vals[n] - tau * discrete_laplacian_apply(space, y_vals[n])
        e_y = nodal_condexp(data, driver, y_vals[n + 1], n + 1, n, state)
        e_x = nodal_condexp(data, driver, np.asarray(state.at(n + 1)), n + 1, n, state)
        defect = lhs - e_y + tau * e_x - tau * z_vals[n]
        worst = max(worst, float(np.sqrt(l2_norm_sq_batch(space, defect)).max()))
    return worst
