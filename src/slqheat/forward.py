"""Space-time scheme for the controlled stochastic heat equation.

The state equation

    dX = (Laplace X + U) dt + (X + sigma(t)) dW        (linear noise)
    dX = (Laplace X + U) dt + sigma(t) dW              (additive noise)

is discretized by a P1 spatial Galerkin method and an implicit Euler step
in time with explicit noise:

    X_{n+1} = A0 [ X_n + tau U_n + (X_n + sigma_n) dW_{n+1} ],
    A0 = (M + tau A)^{-1} M.

The solution operator splits as X = Gamma x0 + L U + f, where Gamma
propagates the initial datum, L the control, and f the inhomogeneous
noise; each part is :func:`solve_forward` on the problem with the other
data set to zero.  The backward recursion that adjoins the scheme lives
in :mod:`slqheat.adjoint`.

The scheme runs in the M-orthonormal eigenbasis of :mod:`slqheat.mesh`,
where A0 = diag(1 / (1 + tau lambda_i)) is an elementwise scale and the
L2 inner product is the euclidean one.  Every process slice and every
datum of :class:`ProblemData` holds eigen coordinates c = V^T M v: the
Ritz projection in :func:`make_problem` returns them directly, and
``space.from_eigen`` gives nodal values back.  A feedback control is the
pair of (N, d) gain arrays (g, h) of U_n = -(g_n X_n + h_n), diagonal
mode by mode like the scheme, which :func:`solve_forward` applies in
place.

An :class:`AdaptedProcess` is one row array that its driver lays out
(:mod:`slqheat.noise`), so nothing here tells trees from ensembles.
:func:`solve_forward` allocates it once (or takes the caller's) and
fills it in place: a stored control enters before the loop, as tau U_n
lifted onto slot n + 1 by the driver's ``lift_scaled``, and each step adds
X_n m_n and sigma_n dW_{n+1}, scales by A0 and allocates nothing.
"""

from dataclasses import dataclass, replace

import numpy as np

from .mesh import ritz_project


@dataclass
class AdaptedProcess:
    """Time-indexed family of per-scenario coefficient arrays, slices 0..K-1.

    ``rows`` is one C-contiguous (R, d) array, slice n at rows
    ``driver.offset(n)`` to ``driver.offset(n + 1)``: one row per tree node
    at level n, or per Monte Carlo path.  ``values[n]`` is slice n as a
    view built by ``driver.split``, which refuses rows that fill no whole
    number of slices.  Rows are eigen coordinates c = V^T M v;
    ``space.from_eigen`` turns a slice into nodal values.
    """

    driver: object
    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.ascontiguousarray(self.rows, dtype=float)
        self.values = self.driver.split(self.rows)

    def at(self, n):
        """Slice at time index n."""
        if not 0 <= n < len(self.values):
            raise IndexError(f"time index {n} outside [0, {len(self.values) - 1}]")
        return self.values[n]

    def slice_means(self, other):
        """E <self_n, other_n> over the scenarios of every slice, shape (K,)."""
        return self.driver.slice_means(self.rows, other.rows)

    def head(self, stop):
        """The slices 0..stop as a process that shares this one's storage."""
        return AdaptedProcess(self.driver, self.rows[: self.driver.offset(stop + 1)])

    def check_fits(self, driver, dim, stop):
        """Raise ValueError unless this holds slices 0..stop of ``driver`` with ``dim`` columns."""
        want = (driver.offset(stop + 1), dim)
        if self.rows.shape != want:
            raise ValueError(f"storage rows have shape {self.rows.shape}, need {want} for 0..{stop}")

    def __sub__(self, other):
        return AdaptedProcess(self.driver, self.rows - other.rows)


def zeros_process(driver, dim, stop):
    """All-zero adapted process over time indices 0..stop."""
    return AdaptedProcess(driver, np.zeros((driver.offset(stop + 1), dim)))


@dataclass(frozen=True)
class SigmaSpec:
    """Separable data functions: initial state and noise profile.

    The noise coefficient is sigma(t, x) = scale * time_factor(t) * profile(x);
    x0 and the profile enter by their derivatives, which the Ritz projection reads.
    """

    x0_dx: callable
    profile_dx: callable
    time_factor: callable
    scale: float = 1.0


def default_sigma_spec(scale=1.0):
    """sin(pi x) initial state with sigma(t, x) = scale * exp(-t) sin(pi x)."""
    return SigmaSpec(
        x0_dx=lambda x: np.pi * np.cos(np.pi * x),
        profile_dx=lambda x: np.pi * np.cos(np.pi * x),
        time_factor=lambda t: np.exp(-t),
        scale=scale,
    )


@dataclass
class ProblemData:
    """Discretized problem: space, grid, cost weight and projected data.

    ``x0``, ``sigma`` and ``profile`` hold eigen coordinates of the
    Ritz-projected data.  ``sigma`` has N + 1 slots (slice n is
    sigma(t_n)); the forward scheme reads slots 0..N-1 and the terminal
    slot rides along for diagnostics.  ``profile`` is the scaled projected
    noise profile, sigma(t_n) = time_factor(t_n) * profile.
    """

    space: object
    grid: object
    alpha: float
    x0: np.ndarray
    sigma: np.ndarray
    profile: np.ndarray
    sigma_spec: SigmaSpec
    noise: str = "linear"

    def with_grid(self, grid):
        """Same problem on another time grid (sigma re-sampled in time)."""
        tf = np.array([self.sigma_spec.time_factor(t) for t in grid.nodes])
        return replace(self, grid=grid, sigma=np.outer(tf, self.profile))


def make_problem(space, grid, alpha=1.0, sigma_spec=None, noise="linear"):
    """Ritz-project the continuous data onto the discrete spaces, in eigen coordinates.

    Parameters
    ----------
    space : FemSpace
    grid : TimeGrid
    alpha : float
        Weight of the terminal cost, alpha >= 0.
    sigma_spec : SigmaSpec, optional
        Data functions; defaults to :func:`default_sigma_spec`.
    noise : {'linear', 'additive'}
        Multiplicative (X + sigma) dW or purely additive sigma dW.

    Returns
    -------
    ProblemData
    """
    if alpha < 0:
        raise ValueError(f"terminal weight alpha must be nonnegative, got {alpha}")
    if noise not in ("linear", "additive"):
        raise ValueError(f"unknown noise mode {noise!r}")
    if sigma_spec is None:
        sigma_spec = default_sigma_spec()
    x0 = ritz_project(space, sigma_spec.x0_dx)
    profile = sigma_spec.scale * ritz_project(space, sigma_spec.profile_dx)
    # with_grid samples sigma, so a problem and its resampling on the same grid agree bitwise
    return ProblemData(
        space=space, grid=None, alpha=alpha, x0=x0, sigma=None,
        profile=profile, sigma_spec=sigma_spec, noise=noise,
    ).with_grid(grid)


def a0_scale(space, tau):
    """Diagonal of the implicit Euler step A0 = (M + tau A)^{-1} M in eigen coordinates."""
    return 1.0 / (1.0 + tau * space.eigvals)


def solve_forward(data, driver, control=None, out=None):
    """Run the full state recursion from the problem's initial datum.

    Parameters
    ----------
    data : ProblemData
    driver : TreeDriver or EnsembleDriver
    control : None, AdaptedProcess, or pair of arrays (g, h)
        A stored control spans 0..N-1 (``ValueError`` if it does not
        fit) and is read slice by slice.  A gain pair of shape
        (N, d) each, such as :func:`slqheat.riccati.discrete_feedback`
        returns, is the feedback U_n = -(g_n X_n + h_n) on eigen
        coordinates, applied at the left node of each step and written
        into the slots of the realized control.  None means zero control.
    out : AdaptedProcess over 0..N, optional
        Storage to overwrite with the new state (``ValueError`` if it
        does not fit), such as the previous iterate's state in gradient
        descent: a long ensemble then reuses its pages.  Its values are never read.

    Returns
    -------
    AdaptedProcess over time indices 0..N; for a gain pair, the pair
    (state, realized control over 0..N-1).
    """
    space, grid = data.space, data.grid
    N, tau = grid.n_steps, grid.tau
    d = space.dim
    mult = driver.mult if data.noise == "linear" else np.ones((N, 1, 1, 1))  # additive: m = 1

    proc = zeros_process(driver, d, N) if out is None else out
    proc.check_fits(driver, d, N)
    gains = None
    if control is not None and not isinstance(control, AdaptedProcess):
        gains = [np.asarray(a, dtype=float) for a in control]
        if [a.shape for a in gains] != [(N, d)] * 2:
            raise ValueError(f"feedback gains need shape {(N, d)}, got {[a.shape for a in gains]}")
        control = zeros_process(driver, d, N - 1)
    elif control is not None:
        control.check_fits(driver, d, N - 1)
        driver.lift_scaled(tau, control.rows, proc.rows)
    proc.values[0][...] = data.x0
    # A0 and a scratch array as rows of the largest slice: A0 scales in one contiguous multiply
    scale, tmp = np.tile(a0_scale(space, tau), (2, len(proc.values[N]), 1))
    sdw = np.empty(np.broadcast_shapes(data.sigma.shape[1:], driver.dw.shape[1:]))
    steps = zip(proc.values[:N], proc.values[1:], mult, data.sigma, driver.dw)
    for n, (xn, rows, mn, sn, dwn) in enumerate(steps):
        # X_{n+1} as its sign blocks, which the parent rows xn and mn broadcast against
        nxt = driver.siblings(rows)
        if gains is not None:
            un = control.values[n]
            np.multiply(gains[0][n], xn, out=un)
            un += gains[1][n]
            np.negative(un, out=un)
            np.multiply(tau, un[None], out=nxt)
        if control is None:
            # a first write: adding into a zeroed slot would turn -0.0 into +0.0
            np.multiply(xn, mn, out=nxt)
        else:
            # tau U_n + X_n m_n: the commuted sum is bitwise X_n m_n + tau U_n
            nxt += np.multiply(xn, mn, out=driver.siblings(tmp[: len(rows)]))
        nxt += np.multiply(sn, dwn, out=sdw)
        rows *= scale[: len(rows)]
    return proc if gains is None else (proc, control)
