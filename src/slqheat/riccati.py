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
reads them.  :func:`_closed_loop_moments` sweeps the closed-loop mean
and diagonal second moment of one solution for :func:`cost_from_moments`,
and :func:`_pair_moments` those of the difference of a fine and a coarse
solution for the spatial-rate study.  The data already hold eigen
coordinates, so every function here reads them as they are.
``discrete_feedback(data)`` and ``discrete_value(data)`` read one
backward pass of the exact Riccati recursion of the time-discrete
problem: its optimal feedback gains (g, h), which
:func:`slqheat.forward.solve_forward` applies as U_n = -(g_n X_n + h_n),
and its optimal cost.
"""

from dataclasses import dataclass

import numpy as np

MODE_BOUND = 1e6  # bound on alpha = p_i(T), and so on the modes |p_i|


def _stationary_roots(lams):
    """Roots r+ > 0 > r- of p^2 - (1 - 2 lambda) p - 1 = 0, stably evaluated."""
    b = 1.0 - 2.0 * np.asarray(lams, dtype=float)
    D = np.hypot(b, 2.0)
    # the cancellation-free sum b + D (b > 0) or D - b (b <= 0) is |b| + D >= 2 (r+ r- = -1)
    s = np.abs(b) + D
    r_plus = np.where(b > 0, s / 2.0, 2.0 / s)
    r_minus = np.where(b > 0, -2.0 / s, -s / 2.0)
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
    sig = data.sigma_at(t_half)
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
    half-grid points, shape (2K+1,) + y0.shape.  Eliminating the
    collocation stages makes each panel affine in its start value y0, with
    coefficients that are whole-array operations over all panels:

        y1 = A y0 + B,   ym = e y0 + c2 y1 + (dt/8)(g0 - g1),   e = 1/2 + (dt/8) a0,
        A = [1 + (dt/6)(a0 + 4 am e)] / den,   c2 = 1/2 - (dt/8) a1,
        B = (dt/6)[g0 + 4 gm + g1 + (dt/2) am (g0 - g1)] / den,   den = 1 - (dt/6)(4 am c2 + a1).

    The scheme's stability function is the Pade(2,2) approximant of the
    exponential: A-stable with positive damping, so arbitrarily stiff
    decaying components stay monotone.  With a == 0 it reduces to
    composite Simpson quadrature of g.
    """
    a0, am, a1 = a_half[:-1:2], a_half[1::2], a_half[2::2]
    g0, gm, g1 = g_half[:-1:2], g_half[1::2], g_half[2::2]
    e = 0.5 + (dt / 8.0) * a0
    c2 = 0.5 - (dt / 8.0) * a1
    den = 1.0 - (dt / 6.0) * (4.0 * am * c2 + a1)
    A = (1.0 + (dt / 6.0) * (a0 + 4.0 * am * e)) / den
    B = (dt / 6.0) * (g0 + 4.0 * gm + g1 + (dt / 2.0) * am * (g0 - g1)) / den
    y = np.empty((len(a_half),) + np.shape(y0))
    y[0] = y0
    for k in range(len(A)):
        y[2 * k + 2] = A[k] * y[2 * k] + B[k]
    y[1::2] = e * y[:-1:2] + c2 * y[2::2] + (dt / 8.0) * (g0 - g1)
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
    N, tau, d = data.grid.n_steps, data.grid.tau, data.space.dim
    linear = data.noise == "linear"
    s, sigma = data.a0, data.sigma
    g, h = np.empty((N, d)), np.empty((N, d))
    P, q, r = np.full(d, tau + data.alpha), np.zeros(d), 0.0
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


def _closed_loop_moments(riccati):
    """Closed-loop mean m and second moment S = E x^2 of each mode, shape (2K+1, d) each.

    Mode i of the controlled state solves dx = (a x - phi) dt + (x + sig) dW
    with a = -(lam + p) from ``data.x0``, so m' = a m - phi and
    S' = (2a + 1) S + 2 (sig - phi) m + sig^2.  S at the midpoints is a
    collocation value, so Simpson sums against it are 4th order.
    """
    x0, phi, sig = riccati.data.x0, riccati.phi_half, riccati.sigma_eig_half
    a = -(riccati.data.space.eigvals + riccati.p_half)
    m = _hs_sweep(a, -phi, x0, riccati.dt)
    return m, _hs_sweep(2.0 * a + 1.0, 2.0 * (sig - phi) * m + sig**2, x0**2, riccati.dt)


def _pair_moments(ric_r, ric_c, partner, c):
    """Moments of delta = x_r - c x_c, each fine mode against coarse mode ``partner``.

    Both systems ride one Wiener process, so with a = -(lam + p),
    dphi = phi_r - c phi_c and dsig = sig_r - c sig_c, delta solves
    d delta = (a_r delta + (a_r - a_c) c x_c - dphi) dt + (delta + dsig) dW and

        m_d'  = a_r m_d + (a_r - a_c) c m_c - dphi,
        S_dc' = (a_r + a_c + 1) S_dc + (a_r - a_c) c S_cc + (sig_c - phi_c) m_d
                + (dsig - dphi) m_c + dsig sig_c,   with S_dc = E delta x_c,
        S_dd' = (2 a_r + 1) S_dd + 2 (a_r - a_c) c S_dc + 2 (dsig - dphi) m_d + dsig^2.

    They are swept in turn after the coarse :func:`_closed_loop_moments`,
    each fed by the half-grid values of the ones before: the joint Lobatto
    IIIA step after a constant change of variables.  Raises ValueError
    unless the solutions share one dense grid (one horizon and one k_fine).

    Returns (m_d, S_dd, S_dc, m_c, S_cc), shape (2K+1, fine dim) each, the
    coarse ones at the partners.
    """
    grids = sorted({(r.data.grid.horizon, r.k_fine) for r in (ric_r, ric_c)})
    if len(grids) != 1:
        raise ValueError(f"coupled solutions need one dense grid, got (horizon, k_fine) {grids}")
    m_c, S_cc = (v[:, partner] for v in _closed_loop_moments(ric_c))
    a_r = -(ric_r.data.space.eigvals + ric_r.p_half)
    a_c = -(ric_c.data.space.eigvals + ric_c.p_half)[:, partner]
    phi_c, sig_c = ric_c.phi_half[:, partner], ric_c.sigma_eig_half[:, partner]
    lift, d_phi = c * (a_r - a_c), ric_r.phi_half - c * phi_c
    d_sig, x0_c = ric_r.sigma_eig_half - c * sig_c, ric_c.data.x0[partner]
    d0, dt = ric_r.data.x0 - c * x0_c, ric_r.dt
    m_d = _hs_sweep(a_r, lift * m_c - d_phi, d0, dt)
    source = lift * S_cc + (sig_c - phi_c) * m_d + (d_sig - d_phi) * m_c + d_sig * sig_c
    S_dc = _hs_sweep(a_r + a_c + 1.0, source, d0 * x0_c, dt)
    source = 2.0 * (lift * S_dc + (d_sig - d_phi) * m_d) + d_sig**2
    S_dd = _hs_sweep(2.0 * a_r + 1.0, source, d0**2, dt)
    return m_d, S_dd, S_dc, m_c, S_cc


def cost_from_moments(riccati):
    """Deterministic cost of the feedback-controlled system from ``riccati.data.x0``.

    cost = (1/2) int_0^T [tr S + E||U||^2] dt + (alpha/2) tr S(T),
    E||U||^2 = sum_i [p_i^2 S_ii + 2 p_i phi_i m_i + phi_i^2] of U = -(p x + phi),

    integrated by composite Simpson over the closed-loop mean and the
    diagonal of the second moment on the half grid
    (:func:`_closed_loop_moments`).
    """
    p, phi = riccati.p_half, riccati.phi_half
    m, S = _closed_loop_moments(riccati)
    tr = S.sum(axis=1)
    u_sq = (p**2 * S + 2.0 * p * phi * m + phi**2).sum(axis=1)
    integral = _simpson_panel_values(tr + u_sq, riccati.dt).sum()
    return float(0.5 * integral + 0.5 * riccati.data.alpha * tr[-1])
