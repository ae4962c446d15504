"""Cost functional, gradient via the kernel, fixed-step descent.

The discrete control problem minimizes

    J(U) = (1/2) ||X(U)||^2_X + (1/2) ||U||^2_U + (alpha/2) E ||X(T)||^2,

where ||X||^2_X = tau sum_{n=1}^N E||X(t_n)||^2 and
||U||^2_U = tau sum_{n=0}^{N-1} E||U(t_n)||^2.  Its gradient in the
control inner product is

    DJ(U) = U - K X(U),

with K the kernel of :func:`slqheat.adjoint.k_htau`, so the optimum is
the fixed point U* = K X(U*).  The solver here is a fixed-step gradient
descent U <- U - (1/kappa) DJ(U) with the operator-norm bound
kappa = 1 + alpha T e^T + T^2 e^T; the exact discrete optimum it
converges to is the feedback of :func:`slqheat.riccati.discrete_feedback`.

States and controls hold eigen coordinates (see :mod:`slqheat.forward`),
so every L2 norm and inner product here is a euclidean row dot product.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .adjoint import k_htau
from .forward import solve_forward, zeros_process


def control_inner(data, u, v):
    """tau-weighted inner product tau sum_n E <u_n, v_n>_{L^2}."""
    return data.grid.tau * float(sum(u.slice_means(v)))


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
    state_sq = state.slice_means(state)
    ctrl_sq = control.slice_means(control)
    # builtin sums keep the slice order of the scalar accumulation
    return float(0.5 * tau * (sum(state_sq[1:]) + sum(ctrl_sq)) + 0.5 * alpha * state_sq[-1])


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
    value = cost(data, state, control)
    if state.driver.kind == "tree":
        return value, 0.0
    if state.driver.n_paths < 2:
        raise ValueError(f"a standard error needs at least 2 paths, got {state.driver.n_paths}")
    tau, alpha = data.grid.tau, data.alpha
    x, u = state.values, control.values
    samples = 0.5 * tau * (np.einsum("kpd,kpd->p", x[1:], x[1:]) + np.einsum("kpd,kpd->p", u, u))
    samples += 0.5 * alpha * np.einsum("pd,pd->p", x[-1], x[-1])
    se = float(samples.std(ddof=1) / np.sqrt(len(samples)))
    return value, se


def kappa_bound(horizon, alpha):
    """Upper bound 1 + alpha T e^T + T^2 e^T for the cost Hessian norm."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    eT = np.exp(horizon)
    return float(1.0 + alpha * horizon * eT + horizon * horizon * eT)


@dataclass
class GdTrace:
    """Per-iteration history of the descent (entries before each update) and its stop reason."""

    kappa: float
    cost: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    err_to_ref: list = field(default_factory=list)
    stop: str = "max_iters"  # or "tol": the gradient norm reached tol_grad

    def envelope(self):
        """Theory curve (1 - 1/kappa)^l * err_to_ref[0]."""
        if not self.err_to_ref:
            return []
        rho = np.float64(1.0 - 1.0 / self.kappa)  # overflows to inf, where a float raises
        return [self.err_to_ref[0] * rho**i for i in range(len(self.err_to_ref))]


def gradient_descent(data, driver, max_iters, kappa=None, tol_grad=None, reference=None):
    """Fixed-step descent U <- U - (1/kappa)(U - K X(U)), from U = 0.

    ``kappa`` defaults to kappa_bound(T, alpha); a given kappa is used as
    given, although the contraction guarantee needs it to dominate the
    Hessian norm.  The loop runs at most ``max_iters`` iterations and
    stops early once the gradient norm is at most ``tol_grad``, if given.

    Allocates u, the state and, given a ``reference``, u - reference before
    the loop: each forward solve overwrites the state, and the kernel Q,
    then the gradient u - Q, take the state's slots 0..N-1 before u is
    updated in place, each step one array operation on the row arrays.
    Records cost, gradient norm, and, when ``reference`` is given, the
    squared control distance to it, all at the pre-update iterate.

    Returns
    -------
    (control, GdTrace); the control carries one update past the last
    recorded iterate when the gradient tolerance stops the loop.

    Raises
    ------
    ValueError if kappa is not positive or tol_grad is negative.

    Warns
    -----
    RuntimeWarning after five consecutive cost increases (kappa is then
    likely below the contraction threshold).
    """
    space, grid = data.space, data.grid
    if kappa is None:
        kappa = kappa_bound(grid.horizon, data.alpha)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if tol_grad is not None and tol_grad < 0:
        raise ValueError("tol_grad must be nonnegative")

    u = zeros_process(driver, space.dim, grid.n_steps - 1)
    state = zeros_process(driver, space.dim, grid.n_steps)
    g = state.head(grid.n_steps - 1)
    diff = None if reference is None else zeros_process(driver, space.dim, grid.n_steps - 1)
    trace = GdTrace(kappa=kappa)
    tau, step = grid.tau, 1.0 / kappa
    increases = 0
    warned = False
    for _ in range(max_iters):
        solve_forward(data, driver, u, out=state)
        j = cost(data, state, u)
        trace.cost.append(j)
        if reference is not None:
            np.subtract(u.rows, reference.rows, out=diff.rows)
            trace.err_to_ref.append(control_norm_sq(data, diff))
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

        k_htau(data, state, out=g)
        np.subtract(u.rows, g.rows, out=g.rows)
        # builtin sum in the order the backward sweep visits the slices
        grad_norm = float(np.sqrt(sum(tau * g.slice_means(g)[::-1])))
        g.rows *= step
        u.rows -= g.rows
        trace.grad_norm.append(grad_norm)
        if tol_grad is not None and grad_norm <= tol_grad:
            trace.stop = "tol"
            break
    return u, trace
