"""Riccati feedback: exact semidiscrete modes, moments, and the discrete recursion.

In the M-orthonormal eigenbasis the operator Riccati equation

    P' + P Laplace_h + Laplace_h P + P + I - P^2 = 0,   P(T) = alpha I,

decouples into the scalar backward ODEs

    p_i' = 2 lambda_i p_i - p_i - 1 + p_i^2,   p_i(T) = alpha,

whose coefficients are constant, so p_i has a closed form: with
b = 1 - 2 lambda, the stationary equation p^2 - b p - 1 = 0 has roots
r+- = (b +- sqrt(b^2 + 4)) / 2 with r- < 0 < r+, and in reversed time
s = T - t

    p_i(T - s) = (r+ - r- c0 e^{-D s}) / (1 - c0 e^{-D s}),
    D = r+ - r- = sqrt(b^2 + 4),   c0 = (alpha - r+) / (alpha - r-).

Since alpha >= 0 > r-, the denominator never vanishes and the formula is
uniformly stable for every mode, including the stiff ones (lambda up to
12/h^2) where explicit time stepping at any practical step count blows
up.

The remaining linear backward/forward ODEs (offset phi, closed-loop
first and second moments) are integrated by one Hermite-Simpson sweep,
:func:`_hs_sweep` (Lobatto IIIA, 3 stages): A-stable, 4th order, with
closed-form stage elimination for the componentwise-diagonal systems
used here.  It returns whole (2K+1, .) half-grid trajectories, and the
cost integrals are composite Simpson sums of their rows, all on the same
fine half-grid sampling.

``solve_riccati(data, k_fine)`` is the one constructor: from a
:class:`slqheat.forward.ProblemData` it builds the complete
:class:`RiccatiSolution` (p, phi, the noise coefficients and the value
integral), reading the noise from the data's projected profile.  Its
trajectories are time-major, one row per half-grid point, as every sweep
reads them.  :func:`_closed_loop_moments` sweeps a list of solutions on
one dense grid as one stacked system: a single solution for
:func:`cost_from_moments`, a mesh pair for the spatial-rate study.  The
data already hold eigen coordinates, so every function here reads them
as they are.  ``discrete_feedback(data)`` and ``discrete_value(data)``
read one backward pass of the exact Riccati recursion of the
time-discrete problem: its optimal feedback gains (g, h), which
:func:`slqheat.forward.solve_forward` applies as U_n = -(g_n X_n + h_n),
and its optimal cost.
"""

from dataclasses import dataclass

import numpy as np

from .forward import a0_scale

MODE_BOUND = 1e6  # bound on alpha = p_i(T), and so on the modes |p_i|


def _stationary_roots(lams):
    """Roots r+ > 0 > r- of p^2 - (1 - 2 lambda) p - 1 = 0, stably evaluated."""
    b = 1.0 - 2.0 * np.asarray(lams, dtype=float)
    D = np.hypot(b, 2.0)
    # pick the cancellation-free expression per sign of b (r+ r- = -1)
    r_plus = np.where(b > 0, (b + D) / 2.0, 2.0 / (D - b))
    r_minus = np.where(b > 0, -2.0 / (b + D), (b - D) / 2.0)
    return r_plus, r_minus, D


def riccati_mode_values(lams, alpha, horizon, t):
    """Closed-form p_i(t) for given eigenvalues.

    Parameters
    ----------
    lams : array_like, shape (d,)
    alpha : float
        Terminal value p_i(T) = alpha >= 0.
    horizon : float
    t : array_like, shape (n_t,)

    Returns
    -------
    p : ndarray, shape (n_t, d), time-major: row k holds every mode at t[k]
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    r_plus, r_minus, D = _stationary_roots(lams)
    c0 = (alpha - r_plus) / (alpha - r_minus)
    cE = c0 * np.exp(-D * (horizon - t)[:, None])
    return (r_plus - r_minus * cE) / (1.0 - cE)


@dataclass
class RiccatiSolution:
    """Riccati feedback of one problem, sampled on a dense half-step grid.

    ``data`` is the :class:`slqheat.forward.ProblemData` it was solved
    for; its ``space.eigvals`` are the modes' eigenvalues.  The half-grid
    arrays hold p, the offset phi and the noise coefficients sigma_i(t)
    time-major, shape (2 K_fine + 1, d): row k is half-grid point k
    (nodes and midpoints interleaved), column i is mode i.  The midpoints
    feed the collocation sweeps of the moments.  ``value_integral`` lives
    on the K_fine + 1 nodes of the grid.
    """

    data: object
    k_fine: int
    p_half: np.ndarray
    phi_half: np.ndarray
    sigma_eig_half: np.ndarray
    value_integral: np.ndarray

    @property
    def dt(self):
        """Node spacing of the dense grid."""
        return self.data.grid.horizon / self.k_fine


def solve_riccati(data, k_fine):
    """Riccati feedback of a problem: p, the offset phi and the value integral.

    Evaluates the closed form of the constant-coefficient scalar Riccati
    ODEs at the nodes and midpoints of a K_fine-panel grid on [0, T].
    Explicit time stepping is deliberately avoided: the stiffest mode has
    lambda ~ 12 / h^2, far beyond any explicit method's stability region
    at practical step counts, while the closed form is uniform in lambda.
    The offset phi and the value integral follow by the Hermite-Simpson
    sweep of :func:`_phi_sweep`, driven by the noise coefficients
    sigma_i(t) = time_factor(t) (profile)_i, with ``data.profile`` the
    scaled projected noise profile in eigen coordinates.

    Parameters
    ----------
    data : ProblemData
        Supplies the space, alpha, the noise profile and the horizon of
        ``data.grid`` (its step count does not enter); the solution keeps
        it, and :func:`cost_from_moments` starts from its ``x0``.
    k_fine : int
        Number of panels of the dense grid.

    Returns
    -------
    RiccatiSolution

    Raises
    ------
    ValueError
        For additive noise: the mode equations carry the +P term and the
        moment sweeps the (X + sigma) noise of the linear-noise problem.
        For alpha outside [0, MODE_BOUND): each p_i runs monotonically between
        alpha and its stationary root r+ < 1.62, so this bounds every mode.
    """
    if data.noise != "linear":
        raise ValueError(
            f"the Riccati feedback covers the linear-noise problem only, got noise={data.noise!r}"
        )
    if k_fine < 1:
        raise ValueError(f"need k_fine >= 1, got {k_fine}")
    if not 0 <= data.alpha < MODE_BOUND:
        raise ValueError(f"need 0 <= alpha < {MODE_BOUND:g}, got {data.alpha}")
    space, horizon = data.space, data.grid.horizon
    t_half = np.linspace(0.0, horizon, 2 * k_fine + 1)
    p_half = riccati_mode_values(space.eigvals, data.alpha, horizon, t_half)
    tf = np.array([data.sigma_spec.time_factor(t) for t in t_half])
    sig = np.outer(tf, data.profile)
    phi_half, value_integral = _phi_sweep(space.eigvals, p_half, sig, horizon / k_fine)
    return RiccatiSolution(
        data=data,
        k_fine=k_fine,
        p_half=p_half,
        phi_half=phi_half,
        sigma_eig_half=sig,
        value_integral=value_integral,
    )


def _hs_sweep(a_half, g_half, y0, dt):
    """Hermite-Simpson integration of componentwise y' = a(t) y + g(t).

    ``a_half`` and ``g_half`` hold samples at the 2K+1 half-grid points
    (nodes and midpoints); ``dt`` is the node spacing.  Returns y at all
    half-grid points, shape (2K+1,) + y0.shape.  The collocation stages
    are eliminated in closed form:

        f0 = a0 y0 + g0
        ym = c1 + c2 y1,  c1 = y0/2 + (dt/8)(f0 - g1),  c2 = 1/2 - (dt/8) a1
        y1 = [y0 + (dt/6)(f0 + 4(am c1 + gm) + g1)] / [1 - (dt/6)(4 am c2 + a1)]

    The scheme's stability function is the Pade(2,2) approximant of the
    exponential: A-stable with positive damping, so arbitrarily stiff
    decaying components stay monotone.  With a == 0 it reduces to
    composite Simpson quadrature of g.
    """
    y = np.empty((len(a_half),) + np.shape(y0))
    y[0] = y0
    for k in range(0, len(a_half) - 1, 2):
        a0, am, a1 = a_half[k : k + 3]
        g0, gm, g1 = g_half[k : k + 3]
        f0 = a0 * y[k] + g0
        c1 = 0.5 * y[k] + (dt / 8.0) * (f0 - g1)
        c2 = 0.5 - (dt / 8.0) * a1
        y[k + 2] = (y[k] + (dt / 6.0) * (f0 + 4.0 * (am * c1 + gm) + g1)) / (
            1.0 - (dt / 6.0) * (4.0 * am * c2 + a1)
        )
        y[k + 1] = c1 + c2 * y[k + 2]
    return y


def _simpson_panel_values(f_half, dt):
    """Per-panel Simpson contributions (dt/6)(f_0 + 4 f_mid + f_1), shape (K,)."""
    return (dt / 6.0) * (f_half[:-1:2] + 4.0 * f_half[1::2] + f_half[2::2])


def _phi_sweep(lams, p_half, sig, dt):
    """Offset trajectories phi_i and the running value integral.

    Integrates, backward from phi_i(T) = 0,

        phi_i' = (lambda_i + p_i(t)) phi_i - p_i(t) sigma_i(t),

    by the Hermite-Simpson sweep in reversed time, and accumulates

        value_integral(t_k) = (1/2) int_{t_k}^T [sum_i p_i sigma_i^2
                                                 - sum_i phi_i^2] ds

    with the matching composite Simpson rule.  The minus sign on phi^2
    comes from completing the square in the control: the constant term
    of the value function solves g' = (1/2)||phi||^2 - (1/2)(P sigma, sigma)
    with g(T) = 0.

    Returns
    -------
    (phi on the half grid, time-major like p_half and sig: shape (2K+1, d);
     value_integral, shape (K+1,))
    """
    # reversed time: psi(s) = phi(T - s) solves psi' = -(lam + p~) psi + p~ sig~
    p_rev = p_half[::-1]
    phi_half = _hs_sweep(-(lams + p_rev), p_rev * sig[::-1], np.zeros(len(lams)), dt)[::-1]

    integrand = (p_half * sig**2).sum(axis=1) - (phi_half**2).sum(axis=1)
    panels = _simpson_panel_values(integrand, dt)
    return phi_half, 0.5 * np.concatenate((np.cumsum(panels[::-1])[::-1], [0.0]))


def value_function(riccati):
    """Optimal cost from the initial state ``riccati.data.x0``.

    V = (1/2) sum_i p_i(0) x_i^2 + sum_i phi_i(0) x_i + value_integral(0),
    with x_i the eigen coordinates of x0.
    """
    coords = riccati.data.x0
    p0 = riccati.p_half[0]
    phi0 = riccati.phi_half[0]
    return float(
        0.5 * (p0 * coords**2).sum() + (phi0 * coords).sum() + riccati.value_integral[0]
    )


def _discrete_recursion(data):
    """One backward pass of the recursion in :func:`discrete_feedback`.

    Returns (g, h, P_0, q_0, r_0): the gains, shape (N, d) each, and V_0's coefficients.
    """
    space, grid = data.space, data.grid
    N, tau = grid.n_steps, grid.tau
    linear = data.noise == "linear"
    s, sigma = a0_scale(space, tau), data.sigma
    g = np.empty((N, space.dim))
    h = np.empty((N, space.dim))
    P, q, r = np.full(space.dim, tau + data.alpha), np.zeros(space.dim), 0.0
    for n in range(N - 1, -1, -1):
        a, b = P * s**2, q * s
        g[n], h[n] = a / (1.0 + tau * a), b / (1.0 + tau * a)
        r += 0.5 * tau * (a * sigma[n] ** 2 - b * h[n]).sum()
        noise = tau * a if linear else 0.0
        P, q = g[n] + noise + tau * (n >= 1), h[n] + noise * sigma[n]
    return g, h, P, q, r


def discrete_feedback(data):
    """Exact optimal feedback of the time-discrete control problem.

    Mode i of the scheme reads X_{n+1} = s_i [(1 + dW) X_n + tau U_n +
    sigma_{n,i} dW] with s_i = 1 / (1 + tau lambda_i); the modes share
    only the increment, so dynamic programming is exact mode by mode.
    The cost-to-go from step n is V_n(c) = (1/2) sum_i P_{n,i} c_i^2 +
    q_n . c + r_n.  From P_N = tau + alpha, q_N = 0, r_N = 0, each step
    n = N-1, ..., 0 sets a = P_{n+1} s^2, b = q_{n+1} s and

        g_n = a / (1 + tau a),   h_n = b / (1 + tau a),
        P_n = g_n + tau a + tau [n >= 1],   q_n = h_n + tau a sigma_n,
        r_n = r_{n+1} + (tau / 2) sum_i (a sigma_{n,i}^2 - b h_n),

    where additive noise drops the noise terms tau a and tau a sigma_n
    (Kleinman 1969; Ait Rami, Chen, Moore and Zhou 2001).  Only the mean 0
    and variance tau of the increments enter, so it holds on trees and
    ensembles alike.

    Returns
    -------
    (g, h), arrays of shape (N, d): the feedback U_n = -(g_n X_n + h_n) on
    eigen coordinates, the gain-pair control that
    :func:`slqheat.forward.solve_forward` takes.
    """
    return _discrete_recursion(data)[:2]


def discrete_value(data):
    """Optimal cost of the time-discrete problem from ``data.x0``, exactly.

    V_0(c) = (1/2) sum_i P_{0,i} c_i^2 + q_0 . c + r_0 at the eigen
    coordinates c of x0 (see :func:`discrete_feedback`).
    """
    _, _, P, q, r = _discrete_recursion(data)
    c0 = data.x0
    return float(0.5 * (P * c0**2).sum() + q @ c0 + r)


def _closed_loop_moments(rics, rows, cols):
    """Closed-loop mean and second-moment entries of coupled solutions on the half grid.

    The solutions in ``rics`` ride one scalar Wiener process, so their
    stacked eigen coordinates (those of rics[0] first) solve one linear
    SDE with diagonal drift.  Its mean solves m' = -(lam + p) m - phi
    (componentwise); each second-moment entry solves its own scalar ODE

        S_ij' = (a_i + a_j + 1) S_ij + b_ij,
        b_ij = -phi_i m_j - phi_j m_i + m_i sig_j + m_j sig_i + sig_i sig_j,

    with a_i = -(lam_i + p_i).  The +1 and the sig terms come from the
    multiplicative noise second moment E (X + sig)(X + sig)^T.  Only the
    entries (rows[e], cols[e]) of the stack are swept, from S_ij(0) =
    m0_i m0_j with m0 the stacked ``data.x0``, so the cost is linear in the
    number of entries.  S values at midpoints are collocation values,
    accurate to the scheme's order, so Simpson accumulation against them
    is 4th order.  Raises ValueError unless the solutions share one dense
    grid (one horizon and one k_fine).

    Returns
    -------
    (m, S) of shapes (2K+1, n) and (2K+1, len(rows)): the mean of all n
    stacked modes and the swept entries, one row per half-grid point.
    """
    grids = sorted({(r.data.grid.horizon, r.k_fine) for r in rics})
    if len(grids) != 1:
        raise ValueError(f"coupled solutions need one dense grid, got (horizon, k_fine) {grids}")
    # the stack: each solution's columns, eigenvalues and x0 in turn
    parts = [(r.p_half, r.phi_half, r.sigma_eig_half, r.data.space.eigvals, r.data.x0)
             for r in rics]
    p, phi, sig, lams, m0 = (np.concatenate(part, axis=-1) for part in zip(*parts))
    dt = rics[0].dt
    a = -(lams + p)
    m = _hs_sweep(a, -phi, m0, dt)
    source = -phi[:, rows] * m[:, cols]
    source -= phi[:, cols] * m[:, rows]
    source += m[:, rows] * sig[:, cols]
    source += m[:, cols] * sig[:, rows]
    source += sig[:, rows] * sig[:, cols]
    return m, _hs_sweep(a[:, rows] + a[:, cols] + 1.0, source, m0[rows] * m0[cols], dt)


def _control_sq(p, phi, m, S):
    """E||U||^2 = sum_i [p_i^2 S_ii + 2 p_i phi_i m_i + phi_i^2] of U = -(p x + phi), per row.

    Rows are time points; m and S are the closed-loop mean and second
    moments E x_i^2 of the modes that p and phi weigh.
    """
    return (p**2 * S).sum(axis=1) + 2.0 * (p * phi * m).sum(axis=1) + (phi**2).sum(axis=1)


def cost_from_moments(riccati):
    """Deterministic cost of the feedback-controlled system from ``riccati.data.x0``.

    cost = (1/2) int_0^T [tr S + E||U||^2] dt + (alpha/2) tr S(T),
    E||U||^2 = sum_i [p_i^2 S_ii + 2 p_i phi_i m_i + phi_i^2],

    integrated by composite Simpson over the closed-loop mean and the
    diagonal of the second moment on the half grid.
    """
    data = riccati.data
    diag = np.arange(data.space.dim)
    m, S = _closed_loop_moments([riccati], diag, diag)
    tr = S.sum(axis=1)
    u_sq = _control_sq(riccati.p_half, riccati.phi_half, m, S)
    integral = _simpson_panel_values(tr + u_sq, riccati.dt).sum()
    return float(0.5 * integral + 0.5 * data.alpha * tr[-1])
