"""Conditioning on F_{t_n}, the adjoints L*, Lhat*, the gradient kernel and
the backward equation.

Every object here is a shared pathwise backward recursion of
:mod:`slqheat.forward` followed by one conditioning per slice:

* ``apply_L_adjoint`` / ``apply_Lhat_adjoint`` -- the adjoints of the
  control-to-state and control-to-terminal-state maps;

* ``k_htau`` -- the kernel K X = -L*(X) - alpha Lhat*(X_N) appearing in
  the discrete optimality condition U = K X (noise multipliers start two
  steps past the conditioning time);

* ``implicit_euler_bsde`` -- the solution (Y0, Zbar0) of the implicit
  Euler discretization of the backward equation

      dY = (-Laplace Y - Z + X) dt + Z dW,   Y(T) = -alpha X(T),

  whose multipliers start one step past the conditioning time.  The two
  differ by O(tau) uniformly in time, which the adjoint-gap study
  measures.

All conditioning goes through :func:`condexp`: exact subtree means on the
scenario tree, and ridge-regularized least squares on Monte Carlo
ensembles (features: constant, leading eigenbasis coordinates of the
state, and the Brownian value at t_n).  Processes hold eigen coordinates
(see :mod:`slqheat.forward`), so L2 norms are euclidean row norms.
"""

import numpy as np

from .forward import AdaptedProcess, backward_kernel
from .noise import tree_condexp


def regression_condexp(features, targets, ridge=1e-10):
    """Ridge least-squares fit of targets on features.

    Solves (F^T F + ridge I) beta = F^T Y and returns (beta, F beta).  With
    ridge = 0 the normal equations must be well conditioned; otherwise a
    ValueError suggests regularizing.
    """
    F = np.asarray(features, dtype=float)
    Y = np.asarray(targets, dtype=float)
    gram = F.T @ F
    if ridge > 0:
        gram = gram + ridge * np.eye(gram.shape[0])
    elif np.linalg.cond(gram) > 1e12:
        raise ValueError("feature Gram matrix is rank deficient; set ridge > 0")
    beta = np.linalg.solve(gram, F.T @ Y)
    return beta, F @ beta


def condexp(data, driver, values, level, n, state=None):
    """E[values | F_{t_n}] for per-scenario values living at time index ``level``.

    On a scenario tree this is the exact subtree average of the
    level-``level`` node values over the level-``n`` nodes.  On an
    ensemble it is the least-squares regression (ridge 1e-10, which keeps
    degenerate slices such as t_0, where all paths coincide, solvable) on
    [1, xhat_1, ..., xhat_m, W(t_n)], with xhat_i the leading
    m = min(4, d) eigenbasis coordinates of ``state`` at t_n.

    Raises
    ------
    ValueError
        On an ensemble without ``state``: the regression features need it.
    """
    if driver.kind == "tree":
        return tree_condexp(values, level, n)
    if state is None:
        raise ValueError("conditioning on an ensemble regresses on the state; pass state")
    # the exact conditional expectations are affine in the state
    # coordinates, so a linear basis in a few leading modes is adequate
    m = min(4, data.space.dim)
    coords = state.at(n)[:, :m]
    features = np.column_stack([np.ones(driver.n_scenarios(n)), *coords.T, driver.brownian(n)])
    return regression_condexp(features, values)[1]


def apply_L_adjoint(data, driver, xi):
    """Adjoint of the control-to-state map in the tau-weighted pairing.

    ``xi`` must cover time indices 1..N.  Returns the process with slices
    (L* xi)(t_n) = tau E[ sum_{j>n} A0^{j-n} prod m (xi_j) | F_n ] for
    n = 0..N-1, computed by the shared backward kernel followed by one
    conditioning per slice (exact trees only: there is no state to
    regress on).
    """
    N, tau = data.grid.n_steps, data.grid.tau
    out = [None] * N
    for n, G in backward_kernel(data, driver, xi.at, None, product_offset=2):
        out[n] = tau * condexp(data, driver, G, N, n)
    return AdaptedProcess(driver, 0, out)


def apply_Lhat_adjoint(data, driver, eta):
    """Adjoint of the terminal-value map U -> (L U)(t_N).

    ``eta`` is a terminal (time t_N) array; slices run over n = 0..N-1
    without the tau weight.
    """
    N = data.grid.n_steps
    out = [None] * N
    for n, G in backward_kernel(data, driver, None, eta, product_offset=2):
        out[n] = condexp(data, driver, G, N, n)
    return AdaptedProcess(driver, 0, out)


def k_htau_sweep(data, driver, state):
    """Yield (n, Q_n) slices of the gradient kernel from n = N-1 down to 0.

    Q_n = -E[ tau sum_{j>n} A0^{j-n} prod m (X_j) | F_n ]
          - alpha E[ A0^{N-n} prod m (X_N) | F_n ],

    with the noise multipliers starting at step n+2.  The generator form
    lets callers consume slices without storing a second full process.
    """
    tau = data.grid.tau
    alpha = data.alpha
    N = data.grid.n_steps
    v_at = lambda n: -tau * state.at(n)
    eta = -alpha * np.asarray(state.at(N))
    for n, G in backward_kernel(data, driver, v_at, eta, product_offset=2):
        yield n, condexp(data, driver, G, N, n, state)


def k_htau(data, driver, state):
    """Gradient kernel K X as an adapted process over n = 0..N-1."""
    out = [None] * data.grid.n_steps
    for n, q in k_htau_sweep(data, driver, state):
        out[n] = q
    return AdaptedProcess(driver, 0, out)


def implicit_euler_bsde(data, driver, state):
    """Implicit Euler solution (Y0, Zbar0) of the backward equation.

    Y0 satisfies Y0(t_N) = -alpha X(T) and, slice by slice,

        Y0(t_n) = A0 E[(1 + dW_{n+1}) (Y0(t_{n+1}) - tau X(t_{n+1})) | F_n],

    realized through the shared pathwise kernel with multipliers starting
    at n+1.  The martingale integrand is recovered afterwards:

        Zbar0(t_n) = (1/tau) E[(Y0(t_{n+1}) - tau X(t_{n+1})) dW_{n+1} | F_n],

    using the conditioned Y0 slice at level n+1.

    Returns
    -------
    (AdaptedProcess, AdaptedProcess)
        Y0 over 0..N and Zbar0 over 0..N-1.
    """
    grid = data.grid
    N, tau = grid.n_steps, grid.tau
    v_at = lambda n: -tau * state.at(n)
    terminal = -data.alpha * np.asarray(state.at(N))
    y_vals = [None] * (N + 1)
    y_vals[N] = np.array(terminal)
    for n, G in backward_kernel(data, driver, v_at, terminal, product_offset=1):
        y_vals[n] = condexp(data, driver, G, N, n, state)
    y0 = AdaptedProcess(driver, 0, y_vals)

    z_vals = [None] * N
    for n in range(N):
        mart = y_vals[n + 1] - tau * np.asarray(state.at(n + 1))
        dw = driver.increments_at(n + 1)[:, None]
        z_vals[n] = condexp(data, driver, mart * dw, n + 1, n, state) / tau
    return y0, AdaptedProcess(driver, 0, z_vals)


def bsde_residual(data, driver, state, y0, zbar0):
    """Largest martingale-identity residual of a backward-equation solution.

    For each n the identity

        (I - tau Laplace_h) Y0(t_n) = E[Y0(t_{n+1}) | F_n]
                                      - tau E[X(t_{n+1}) | F_n] + tau Zbar0(t_n)

    must hold; the maximum L2 norm of its defect over all scenarios and
    times is returned (exactly zero up to roundoff for exact
    conditioning).  In eigen coordinates I - tau Laplace_h is the
    diagonal 1 + tau lambda_i.
    """
    grid = data.grid
    N, tau = grid.n_steps, grid.tau
    shift = 1.0 + tau * data.space.eigvals
    worst = 0.0
    for n in range(N):
        lhs = np.asarray(y0.at(n)) * shift
        e_y = condexp(data, driver, np.asarray(y0.at(n + 1)), n + 1, n, state)
        e_x = condexp(data, driver, np.asarray(state.at(n + 1)), n + 1, n, state)
        defect = lhs - e_y + tau * e_x - tau * np.asarray(zbar0.at(n))
        norms = np.sqrt(np.einsum("ij,ij->i", defect, defect))
        worst = max(worst, float(norms.max()))
    return worst


def adjoint_gap(data, driver, state):
    """Gap sup_n (E ||Y0(t_n) - Q(t_n)||_M^2)^{1/2} between the two objects.

    First order in tau for admissible state processes, which the
    adjoint-gap study confirms empirically.
    """
    q = k_htau(data, driver, state)
    y0, _ = implicit_euler_bsde(data, driver, state)
    worst = 0.0
    for n in range(data.grid.n_steps):
        diff = np.asarray(y0.at(n)) - np.asarray(q.at(n))
        sq = np.einsum("ij,ij->i", diff, diff)
        # scenario weights are uniform within a tree level and across paths
        worst = max(worst, float(sq.mean()))
    return float(np.sqrt(worst))
