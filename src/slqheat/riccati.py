"""Semidiscrete Riccati feedback: exact mode solutions and moment oracles.

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
first and second moments, running cost integrals) are integrated by
Hermite-Simpson collocation (Lobatto IIIA, 3 stages): A-stable, 4th
order, with closed-form stage elimination for the componentwise-diagonal
systems used here.  With zero drift it degenerates to composite Simpson
quadrature, which keeps every integral in this module consistent with
the same fine half-grid sampling.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .mesh import ritz_project


def _stationary_roots(lams):
    """Roots r+ > 0 > r- of p^2 - (1 - 2 lambda) p - 1 = 0, stably evaluated."""
    b = 1.0 - 2.0 * np.asarray(lams, dtype=float)
    D = np.hypot(b, 2.0)
    # pick the cancellation-free expression per sign of b (r+ r- = -1)
    r_plus = np.where(b > 0, (b + D) / 2.0, 2.0 / (D - b))
    r_minus = np.where(b > 0, -2.0 / (b + D), (b - D) / 2.0)
    return r_plus, r_minus, D


def riccati_mode_values(lams, alpha, horizon, t, derivative=False):
    """Closed-form p_i(t) (and optionally p_i'(t)) for given eigenvalues.

    Parameters
    ----------
    lams : array_like, shape (d,)
    alpha : float
        Terminal value p_i(T) = alpha >= 0.
    horizon : float
    t : array_like, shape (n_t,)
    derivative : bool
        Also return the exact time derivative.

    Returns
    -------
    p : ndarray, shape (d, n_t)   [and dp of the same shape if requested]
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    r_plus, r_minus, D = _stationary_roots(lams)
    c0 = (alpha - r_plus) / (alpha - r_minus)
    s = horizon - t
    E = np.exp(-D[:, None] * s[None, :])
    cE = c0[:, None] * E
    den = 1.0 - cE
    p = (r_plus[:, None] - r_minus[:, None] * cE) / den
    if not derivative:
        return p
    # p(t) = q(T - t) with q'(s) = -D^2 c0 E / (1 - c0 E)^2, so p' = -q'(s) * (-1)
    dp = (D**2)[:, None] * cE / den**2
    return p, dp


@dataclass
class RiccatiSolution:
    """Riccati feedback data sampled on a dense half-step grid.

    The public node views (``fine_grid``, ``p``, ``phi``,
    ``value_integral``) live on the K_fine + 1 nodes; the half-grid
    arrays (nodes and midpoints interleaved, 2 K_fine + 1 points) are
    kept because the collocation sweeps for the moment oracles need
    midpoint samples.
    """

    space: object
    horizon: float
    alpha: float
    k_fine: int
    lams: np.ndarray
    t_half: np.ndarray
    p_half: np.ndarray
    phi_half: np.ndarray = None
    sigma_eig_half: np.ndarray = None
    value_integral: np.ndarray = None

    @property
    def fine_grid(self):
        return self.t_half[::2]

    @property
    def p(self):
        return self.p_half[:, ::2]

    @property
    def phi(self):
        return None if self.phi_half is None else self.phi_half[:, ::2]

    def p_at(self, t):
        """Exact p_i(t), shape (d,) for scalar t."""
        return riccati_mode_values(self.lams, self.alpha, self.horizon, [t])[:, 0]

    def phi_at(self, t):
        """phi_i(t) linearly interpolated on the fine node grid, shape (d,)."""
        if self.phi_half is None:
            raise ValueError("phi not computed; run solve_phi first")
        grid = self.fine_grid
        k = min(int(np.searchsorted(grid, t, side="right")) - 1, len(grid) - 2)
        k = max(k, 0)
        w = (t - grid[k]) / (grid[k + 1] - grid[k])
        phi = self.phi
        return (1.0 - w) * phi[:, k] + w * phi[:, k + 1]


def solve_riccati(space, horizon, alpha, k_fine=1024):
    """Per-mode Riccati trajectories on the dense grid.

    Evaluates the closed form of the constant-coefficient scalar Riccati
    ODE at the nodes and midpoints of a K_fine-panel grid.  Explicit time
    stepping is deliberately avoided: the stiffest mode has
    lambda ~ 12 / h^2, far beyond any explicit method's stability region
    at practical step counts, while the closed form is uniform in lambda.

    Returns
    -------
    RiccatiSolution (p part only; see solve_phi)
    """
    if k_fine < 1:
        raise ValueError(f"need k_fine >= 1, got {k_fine}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    t_half = np.linspace(0.0, horizon, 2 * k_fine + 1)
    p_half = riccati_mode_values(space.eigvals, alpha, horizon, t_half)
    if not np.isfinite(p_half).all() or np.abs(p_half).max() > 1e6:
        raise ArithmeticError("Riccati mode solution left its a-priori bounds")
    return RiccatiSolution(
        space=space,
        horizon=float(horizon),
        alpha=float(alpha),
        k_fine=k_fine,
        lams=space.eigvals.copy(),
        t_half=t_half,
        p_half=p_half,
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
    n_half = len(a_half)
    K = (n_half - 1) // 2
    y = np.empty((n_half,) + np.shape(y0))
    y[0] = y0
    for k in range(K):
        a0, am, a1 = a_half[2 * k], a_half[2 * k + 1], a_half[2 * k + 2]
        g0, gm, g1 = g_half[2 * k], g_half[2 * k + 1], g_half[2 * k + 2]
        yk = y[2 * k]
        f0 = a0 * yk + g0
        c1 = 0.5 * yk + (dt / 8.0) * (f0 - g1)
        c2 = 0.5 - (dt / 8.0) * a1
        y1 = (yk + (dt / 6.0) * (f0 + 4.0 * (am * c1 + gm) + g1)) / (
            1.0 - (dt / 6.0) * (4.0 * am * c2 + a1)
        )
        y[2 * k + 1] = c1 + c2 * y1
        y[2 * k + 2] = y1
    return y


def _simpson_panel_values(f_half, dt):
    """Per-panel Simpson contributions (dt/6)(f_0 + 4 f_mid + f_1), shape (K,)."""
    return (dt / 6.0) * (f_half[:-1:2] + 4.0 * f_half[1::2] + f_half[2::2])


def sigma_eig_on_half_grid(space, sigma_spec, t_half):
    """Eigen-coefficients of R_h sigma(t) at the half-grid times, (d, 2K+1)."""
    prof = ritz_project(space, sigma_spec.profile_dx)
    prof_eig = space.to_eigen(prof)
    tf = np.array([sigma_spec.time_factor(t) for t in t_half])
    return sigma_spec.scale * np.outer(prof_eig, tf)


def solve_phi(space, riccati, sigma_spec, k_fine=None):
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
    RiccatiSolution with phi and value_integral filled in.
    """
    if k_fine is not None and k_fine != riccati.k_fine:
        raise ValueError(
            f"phi must live on the Riccati grid (k_fine {riccati.k_fine}), got {k_fine}"
        )
    t_half = riccati.t_half
    dt = riccati.horizon / riccati.k_fine
    sig = sigma_eig_on_half_grid(space, sigma_spec, t_half)

    # reversed time: psi(s) = phi(T - s) solves psi' = -(lam + p~) psi + p~ sig~
    p_rev = riccati.p_half[:, ::-1]
    sig_rev = sig[:, ::-1]
    a_rev = -(riccati.lams[:, None] + p_rev)
    g_rev = p_rev * sig_rev
    psi = _hs_sweep(a_rev.T, g_rev.T, np.zeros(space.dim), dt)
    phi_half = psi[::-1].T

    integrand = (riccati.p_half * sig**2).sum(axis=0) - (phi_half**2).sum(axis=0)
    panels = _simpson_panel_values(integrand, dt)
    vint = 0.5 * np.concatenate((np.cumsum(panels[::-1])[::-1], [0.0]))
    return replace(
        riccati, phi_half=phi_half, sigma_eig_half=sig, value_integral=vint
    )


def feedback_control(riccati, c, t):
    """Feedback law u = -P(t) x - phi(t) in eigen coordinates.

    Accepts the eigen coordinates of a single state (d,) or of a batch
    (n, d) and returns the control in the same coordinates, as
    :func:`slqheat.forward.solve_forward` expects of a callable control;
    p is evaluated in closed form and phi by linear interpolation.
    """
    if t < -1e-12 or t > riccati.horizon + 1e-12:
        raise ValueError(f"time {t} outside [0, {riccati.horizon}]")
    p = riccati.p_at(t)
    phi = riccati.phi_at(t) if riccati.phi_half is not None else 0.0
    return -p * np.asarray(c) - phi


def value_function(riccati, x0):
    """Optimal cost from initial state x0 (nodal coefficients).

    V = (1/2) sum_i p_i(0) x_i^2 + sum_i phi_i(0) x_i + value_integral(0),
    with x_i the eigen-coefficients of x0.
    """
    if riccati.phi_half is None or riccati.value_integral is None:
        raise ValueError("value function needs phi; run solve_phi first")
    coords = riccati.space.to_eigen(x0)
    p0 = riccati.p_half[:, 0]
    phi0 = riccati.phi_half[:, 0]
    return float(
        0.5 * (p0 * coords**2).sum() + (phi0 * coords).sum() + riccati.value_integral[0]
    )


@dataclass
class MomentState:
    """First and second moments of the closed-loop state in the eigenbasis."""

    m: np.ndarray
    S: np.ndarray


def _closed_loop_stream(riccati, m0, S0):
    """Yield (half_index, m, S) along the closed-loop moment sweep.

    The mean solves m' = -(lam + p) m - phi (componentwise); the second
    moment solves, componentwise in the eigenbasis,

        S_ij' = (a_i + a_j + 1) S_ij + b_ij,
        b = -phi m^T - m phi^T + m sig^T + sig m^T + sig sig^T,

    with a_i = -(lam_i + p_i).  The +1 and the sig terms come from the
    multiplicative noise second moment E (X + sig)(X + sig)^T.  S values
    at midpoints are collocation values, accurate to the scheme's order,
    so Simpson accumulation against this stream is 4th order.
    """
    if riccati.phi_half is None or riccati.sigma_eig_half is None:
        raise ValueError("moment sweep needs phi and sigma; run solve_phi first")
    dt = riccati.horizon / riccati.k_fine
    a = -(riccati.lams[:, None] + riccati.p_half)  # (d, 2K+1)
    m_half = _hs_sweep(a.T, -riccati.phi_half.T, m0, dt)  # (2K+1, d)

    def b_at(idx):
        m = m_half[idx]
        phi = riccati.phi_half[:, idx]
        sig = riccati.sigma_eig_half[:, idx]
        pm = np.outer(phi, m)
        ms = np.outer(m, sig)
        return -pm - pm.T + ms + ms.T + np.outer(sig, sig)

    S = np.array(S0, dtype=float)
    yield 0, m_half[0], S
    for k in range(riccati.k_fine):
        i0, i1, i2 = 2 * k, 2 * k + 1, 2 * k + 2
        A0 = a[:, i0][:, None] + a[:, i0][None, :] + 1.0
        Am = a[:, i1][:, None] + a[:, i1][None, :] + 1.0
        A1 = a[:, i2][:, None] + a[:, i2][None, :] + 1.0
        g0, gm, g1 = b_at(i0), b_at(i1), b_at(i2)
        f0 = A0 * S + g0
        c1 = 0.5 * S + (dt / 8.0) * (f0 - g1)
        c2 = 0.5 - (dt / 8.0) * A1
        S1 = (S + (dt / 6.0) * (f0 + 4.0 * (Am * c1 + gm) + g1)) / (
            1.0 - (dt / 6.0) * (4.0 * Am * c2 + A1)
        )
        Sm = c1 + c2 * S1
        yield i1, m_half[i1], Sm
        yield i2, m_half[i2], S1
        S = S1


def closed_loop_moments(space, riccati, data, k_fine=None):
    """Moment trajectory of the feedback-controlled state at the fine nodes.

    Returns a list of MomentState (length K_fine + 1) aligned with
    ``riccati.fine_grid``.  Everything is deterministic: this is the
    noise-free oracle the rate studies compare against.
    """
    if k_fine is not None and k_fine != riccati.k_fine:
        raise ValueError(f"moments must live on the Riccati grid, got k_fine={k_fine}")
    if data.noise != "linear":
        raise ValueError("closed-loop moment oracle covers the linear-noise problem only")
    m0 = space.to_eigen(data.x0)
    S0 = np.outer(m0, m0)
    out = []
    for idx, m, S in _closed_loop_stream(riccati, m0, S0):
        if idx % 2 == 0:
            out.append(MomentState(m=m.copy(), S=S.copy()))
    return out


def cost_from_moments(space, riccati, data, k_fine=None):
    """Deterministic cost of the feedback-controlled system.

    cost = (1/2) int_0^T [tr S + E||U||^2] dt + (alpha/2) tr S(T),
    E||U||^2 = sum_i [p_i^2 S_ii + 2 p_i phi_i m_i + phi_i^2],

    accumulated by composite Simpson along the closed-loop moment sweep
    (the trajectory itself is never stored).
    """
    if k_fine is not None and k_fine != riccati.k_fine:
        raise ValueError(f"moments must live on the Riccati grid, got k_fine={k_fine}")
    if data.noise != "linear":
        raise ValueError("closed-loop moment oracle covers the linear-noise problem only")
    dt = riccati.horizon / riccati.k_fine
    m0 = space.to_eigen(data.x0)
    S0 = np.outer(m0, m0)
    vals = np.empty(2 * riccati.k_fine + 1)
    tr_T = None
    for idx, m, S in _closed_loop_stream(riccati, m0, S0):
        p = riccati.p_half[:, idx]
        phi = riccati.phi_half[:, idx]
        diag = np.diagonal(S)
        u_sq = (p**2 * diag).sum() + 2.0 * (p * phi * m).sum() + (phi**2).sum()
        vals[idx] = diag.sum() + u_sq
        tr_T = diag.sum()
    integral = _simpson_panel_values(vals, dt).sum()
    return float(0.5 * integral + 0.5 * riccati.alpha * tr_T)


def solve_riccati_dense(space, horizon, alpha, k_fine=1024):
    """Independent dense-matrix Riccati oracle (test scale, d <= 64).

    Integrates the full matrix ODE in the eigenbasis coordinates (where
    the discrete Laplacian is -diag(lambda)) backward in time by classical
    RK4, making no use of the diagonal structure of the solution.  The
    returned trajectory lets tests confirm that the flow really preserves
    diagonality and matches the per-mode closed form.

    Explicit RK4 needs lambda_max * (T / k_fine) inside its stability
    region, so callers must resolve the stiffest mode (a warning is
    raised otherwise); this is affordable at oracle scale only.

    Returns
    -------
    (t_nodes, P) with P of shape (k_fine + 1, d, d); P[k] acts on
    eigenbasis coordinates at time t_nodes[k].
    """
    d = space.dim
    if d > 64:
        raise ValueError(f"dense oracle limited to d <= 64, got d = {d}")
    lam = space.eigvals
    dt = horizon / k_fine
    if lam.max() * dt > 2.5:
        warnings.warn(
            f"dense RK4 outside its stability region (lambda_max * dt = {lam.max() * dt:.2f}); "
            "increase k_fine",
            RuntimeWarning,
        )
    L = np.diag(lam)
    eye = np.eye(d)

    def rhs(Q):
        # reversed time: Q(s) = P(T - s)
        return -(Q @ L) - (L @ Q) + Q + eye - Q @ Q

    traj = np.empty((k_fine + 1, d, d))
    Q = alpha * eye
    traj[k_fine] = Q
    for k in range(k_fine):
        k1 = rhs(Q)
        k2 = rhs(Q + 0.5 * dt * k1)
        k3 = rhs(Q + 0.5 * dt * k2)
        k4 = rhs(Q + dt * k3)
        Q = Q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(Q).all() or np.abs(Q).max() > 1e6:
            raise ArithmeticError(
                f"dense Riccati RK4 blew up at step {k + 1}; increase k_fine"
            )
        traj[k_fine - 1 - k] = Q
    t_nodes = np.linspace(0.0, horizon, k_fine + 1)
    return t_nodes, traj


def dense_to_nodal(space, P_eig):
    """Reassemble an eigenbasis Riccati matrix as the nodal-coefficient operator."""
    return space.eigvecs @ P_eig @ space.eigvecs.T @ space.mass
