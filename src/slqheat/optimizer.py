"""Cost functional, gradient via the kernel, fixed-step descent, direct solve.

The discrete control problem minimizes

    J(U) = (1/2) ||X(U)||^2_X + (1/2) ||U||^2_U + (alpha/2) E ||X(T)||^2,

where ||X||^2_X = tau sum_{n=1}^N E||X(t_n)||^2 and
||U||^2_U = tau sum_{n=0}^{N-1} E||U(t_n)||^2.  Its gradient in the
control inner product is

    DJ(U) = U - K X(U),

with K the kernel of :func:`slqheat.adjoint.k_htau`, so the optimum is
the fixed point U* = K X(U*).  Two solvers are provided: a fixed-step
gradient descent U <- U - (1/kappa) DJ(U) with the operator-norm bound
kappa = 1 + alpha T e^T + T^2 e^T, and a conjugate-gradient solve of the
optimality system (exact conditional expectations, scenario trees only)
that serves as the reference in tests and convergence studies.

States and controls hold eigen coordinates (see :mod:`slqheat.forward`),
so every L2 norm and inner product here is a euclidean row dot product.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .adjoint import k_htau, k_htau_sweep
from .forward import AdaptedProcess, apply_L, solve_forward, zeros_process


def _row_sq(values):
    """Per-scenario squared L2 norms of a slice of eigen coordinates."""
    values = np.asarray(values)
    return np.einsum("ij,ij->i", values, values)


def _slice_mean_sq(values):
    # E ||v||^2 over scenarios; slices carry uniform weights on both drivers
    return float(_row_sq(values).mean())


def control_inner(data, u, v):
    """tau-weighted inner product tau sum_n E <u_n, v_n>_{L^2}."""
    total = 0.0
    for n in range(u.start, u.stop + 1):
        total += float(np.einsum("ij,ij->i", u.at(n), v.at(n)).mean())
    return data.grid.tau * total


def control_norm_sq(data, u):
    """Squared control norm tau sum_{n} E ||u_n||^2."""
    return control_inner(data, u, u)


def cost(data, state, control):
    """Discrete quadratic cost of a state/control pair.

    Parameters
    ----------
    data : ProblemData
    state : AdaptedProcess over 0..N (as returned by solve_forward)
    control : AdaptedProcess over 0..N-1

    Returns
    -------
    float; expectations are exact on scenario trees and sample means on
    Monte Carlo ensembles (see cost_with_stderr for the standard error).
    """
    tau, alpha = data.grid.tau, data.alpha
    N = data.grid.n_steps
    state_sq = sum(_slice_mean_sq(state.at(n)) for n in range(1, N + 1))
    ctrl_sq = sum(_slice_mean_sq(control.at(n)) for n in range(N))
    terminal = _slice_mean_sq(state.at(N))
    return 0.5 * tau * (state_sq + ctrl_sq) + 0.5 * alpha * terminal


def cost_with_stderr(data, state, control):
    """(cost, standard error) with per-path samples on ensembles.

    On a scenario tree the expectation is exact and the standard error is
    reported as 0.

    Raises
    ------
    ValueError
        On an ensemble of fewer than two paths, which has no sample
        standard error.
    """
    if state.driver.kind != "tree" and state.driver.n_paths < 2:
        raise ValueError(
            f"a standard error needs at least 2 paths, got {state.driver.n_paths}"
        )
    value = cost(data, state, control)
    if state.driver.kind == "tree":
        return value, 0.0
    tau, alpha = data.grid.tau, data.alpha
    N = data.grid.n_steps
    samples = np.zeros(state.driver.n_paths)
    for n in range(1, N + 1):
        samples += 0.5 * tau * _row_sq(state.at(n))
    for n in range(N):
        samples += 0.5 * tau * _row_sq(control.at(n))
    samples += 0.5 * alpha * _row_sq(state.at(N))
    se = float(samples.std(ddof=1) / np.sqrt(len(samples)))
    return value, se


def gradient(data, driver, control):
    """DJ(U) = U - K X(U) as an adapted process over 0..N-1."""
    state = solve_forward(data, driver, control)
    return control - k_htau(data, driver, state)


def kappa_bound(horizon, alpha):
    """Upper bound 1 + alpha T e^T + T^2 e^T for the cost Hessian norm."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    eT = np.exp(horizon)
    return float(1.0 + alpha * horizon * eT + horizon * horizon * eT)


@dataclass
class GdConfig:
    """Gradient-descent parameters.

    kappa defaults to kappa_bound(T, alpha); smaller values need
    allow_low_kappa=True (the contraction guarantee requires kappa to
    dominate the Hessian norm).  tol_grad defaults to 1e-10 on trees and
    to a 3-standard-error stopping rule on ensembles.
    """

    kappa: float = None
    max_iters: int = 200
    tol_grad: float = None
    u0: AdaptedProcess = None
    allow_low_kappa: bool = False


@dataclass
class GdTrace:
    """Per-iteration history of the descent (entries before each update)."""

    kappa: float
    cost: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    err_to_ref: list = field(default_factory=list)

    def contraction_ratios(self):
        """err_to_ref[l+1] / err_to_ref[l] (squared-distance ratios)."""
        e = self.err_to_ref
        return [e[i + 1] / e[i] if e[i] > 0 else 0.0 for i in range(len(e) - 1)]

    def envelope(self):
        """Theory curve (1 - 1/kappa)^l * err_to_ref[0]."""
        if not self.err_to_ref:
            return []
        rho = 1.0 - 1.0 / self.kappa
        return [self.err_to_ref[0] * rho**i for i in range(len(self.err_to_ref))]


def gradient_descent(data, driver, cfg, reference=None):
    """Fixed-step descent U <- U - (1/kappa)(U - K X(U)).

    Iterates the forward solve, the kernel sweep, and the in-place control
    update (the kernel slices are consumed as they are produced, so no
    second control-sized array is allocated).  Records cost, gradient
    norm, and, when ``reference`` is given, the squared control distance
    to it, all evaluated at the pre-update iterate.

    Returns
    -------
    (control, GdTrace); the control carries one update past the last
    recorded iterate when the gradient tolerance stops the loop.

    Warns
    -----
    RuntimeWarning after five consecutive cost increases (kappa is then
    likely below the contraction threshold).
    """
    space, grid = data.space, data.grid
    kappa = cfg.kappa if cfg.kappa is not None else kappa_bound(grid.horizon, data.alpha)
    bound = kappa_bound(grid.horizon, data.alpha)
    if kappa < bound and not cfg.allow_low_kappa:
        raise ValueError(
            f"kappa={kappa} is below kappa_bound={bound:.6g}; "
            "pass allow_low_kappa=True to override"
        )
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    adaptive_tol = cfg.tol_grad is None and driver.kind != "tree"
    tol = cfg.tol_grad if cfg.tol_grad is not None else (1e-10 if driver.kind == "tree" else 0.0)

    u = cfg.u0.copy() if cfg.u0 is not None else zeros_process(driver, space.dim, 0, grid.n_steps - 1)
    trace = GdTrace(kappa=kappa)
    tau, step = grid.tau, 1.0 / kappa
    increases = 0
    warned = False
    for _ in range(cfg.max_iters):
        state = solve_forward(data, driver, u)
        j = cost(data, state, u)
        trace.cost.append(j)
        if reference is not None:
            trace.err_to_ref.append(control_norm_sq(data, u - reference))
        if len(trace.cost) > 1 and j > trace.cost[-2]:
            increases += 1
            # estimated gradients jitter the cost at their noise floor, so
            # only a macroscopic climb above the best cost signals divergence
            if increases >= 5 and not warned and j > 1.01 * min(trace.cost) + 1e-30:
                warnings.warn(
                    "cost increased over 5 consecutive iterations; "
                    "kappa is likely below the Hessian norm",
                    RuntimeWarning,
                )
                warned = True
        else:
            increases = 0

        # fused kernel sweep and update: g_n = u_n - Q_n, u_n -= g_n / kappa
        grad_sq = 0.0
        per_path = None
        for n, q in k_htau_sweep(data, driver, state):
            g = u.at(n) - q
            rows = _row_sq(g)
            grad_sq += tau * float(rows.mean())
            if adaptive_tol:
                per_path = rows * tau if per_path is None else per_path + rows * tau
            u.at(n)[...] -= step * g
        state = None  # release before the next forward solve (large ensembles)
        grad_norm = float(np.sqrt(grad_sq))
        trace.grad_norm.append(grad_norm)

        if adaptive_tol and per_path is not None and len(per_path) > 1:
            # delta method: se(sqrt(m)) ~ se(m) / (2 sqrt(m))
            se_sq = per_path.std(ddof=1) / np.sqrt(len(per_path))
            tol = 3.0 * se_sq / (2.0 * grad_norm) if grad_norm > 0 else np.inf
        if grad_norm <= tol:
            break
    return u, trace


def direct_solve(data, driver, tol=1e-12, return_info=False):
    """Conjugate-gradient solve of the discrete optimality system.

    The optimal control satisfies (1 + L*L + alpha Lhat*Lhat) U = K X^0,
    with X^0 the zero-control state; the operator application is
    V -> V - K(L V), assembled from the forward and kernel sweeps.
    Conditional expectations must be exact, so the driver is a scenario
    tree.

    Returns
    -------
    control (AdaptedProcess); with return_info=True, (control, n_iters).

    Raises
    ------
    RuntimeError if CG has not reached residual <= tol * ||rhs|| within
    10 * n_unknowns iterations.
    """
    if driver.kind != "tree":
        raise ValueError("direct solve requires exact conditional expectations (tree driver)")
    grid = data.grid
    n_unknowns = data.space.dim * sum(driver.n_scenarios(n) for n in range(grid.n_steps))
    if n_unknowns > 1_000_000:
        raise ValueError(f"optimality system too large ({n_unknowns} unknowns)")

    def apply_n(v):
        return v - k_htau(data, driver, apply_L(data, driver, v))

    x0_state = solve_forward(data, driver, control=None)
    rhs = k_htau(data, driver, x0_state)
    rhs_norm = float(np.sqrt(control_norm_sq(data, rhs)))
    u = zeros_process(driver, data.space.dim, 0, grid.n_steps - 1)
    if rhs_norm == 0.0:
        return (u, 0) if return_info else u

    r = rhs.copy()
    p = rhs.copy()
    rs = control_inner(data, r, r)
    max_iters = 10 * n_unknowns
    for it in range(1, max_iters + 1):
        ap = apply_n(p)
        alpha_cg = rs / control_inner(data, p, ap)
        u.axpy(alpha_cg, p)
        r.axpy(-alpha_cg, ap)
        rs_new = control_inner(data, r, r)
        if np.sqrt(rs_new) <= tol * rhs_norm:
            return (u, it) if return_info else u
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise RuntimeError(
        f"conjugate gradients did not reach {tol:.1e} * ||rhs|| in {max_iters} iterations"
    )


def estimate_operator_norm(data, driver, n_iters=30, seed=0):
    """Power-iteration estimate of the cost Hessian norm ||1 + L*L + alpha Lhat*Lhat||.

    A tighter kappa than kappa_bound (pass it with allow_low_kappa=True;
    add a safety margin since power iteration converges from below).
    """
    rng = np.random.default_rng(seed)
    vals = [
        rng.standard_normal((driver.n_scenarios(n), data.space.dim))
        for n in range(data.grid.n_steps)
    ]
    v = AdaptedProcess(driver, 0, vals)

    def apply_n(w):
        return w - k_htau(data, driver, apply_L(data, driver, w))

    v = (1.0 / np.sqrt(control_norm_sq(data, v))) * v
    rayleigh = 1.0
    for _ in range(n_iters):
        nv = apply_n(v)
        rayleigh = control_inner(data, v, nv)
        v = (1.0 / np.sqrt(control_norm_sq(data, nv))) * nv
    return float(rayleigh)
