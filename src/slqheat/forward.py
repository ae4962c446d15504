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

A :class:`ProblemData` derives sigma, the A0 diagonal ``a0`` and, once
per row count, the A0 rows ``a0_rows`` from its grid; its ``multipliers``,
where both time loops meet a driver, refuse a driver on another grid.
An :class:`AdaptedProcess` is one row array that its driver lays out
(:mod:`slqheat.noise`), so nothing here tells trees from ensembles.
:func:`solve_forward` allocates it once (or takes the caller's) and
fills it in place: a stored control enters before the loop, as tau U_n
lifted onto slot n + 1 by the driver's ``lift_scaled``, and each step adds
X_n m_n and the driver's ``noise_terms`` sigma_n dW_{n+1} and scales by
the A0 rows.  The views a step reads are built on the first solve into
storage that a caller hands in and kept with it until a solve brings
another problem or driver (``AdaptedProcess.step_views``), so a step is
only its NumPy calls; a solve into fresh storage keeps none.
"""

from dataclasses import dataclass, field, replace
from functools import partial

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
    _views: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.rows = np.ascontiguousarray(self.rows, dtype=float)
        self.values = self.driver.split(self.rows)

    def step_views(self, loop, data, other, build):
        """``build()``, a time ``loop``'s step views here, kept per problem and operand."""
        got = self._views.get(loop)
        if got is None or got[0] is not data or got[1] is not other:
            got = self._views[loop] = (data, other, build())
        return got[2]

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

    ``x0`` and ``profile``, the scaled noise profile of sigma(t) =
    time_factor(t) * profile, hold eigen coordinates of the Ritz-projected
    data.  The grid fixes ``sigma``, sigma(t_n) in N + 1 slots (the scheme
    reads 0..N-1; the terminal slot rides along for diagnostics), and
    ``a0``, the diagonal 1 / (1 + tau lambda_i) of A0 = (M + tau A)^{-1} M.
    """

    space: object
    grid: object
    alpha: float
    x0: np.ndarray
    profile: np.ndarray
    sigma_spec: SigmaSpec
    noise: str = "linear"
    sigma: np.ndarray = field(init=False, repr=False)
    a0: np.ndarray = field(init=False, repr=False)
    _a0_rows: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.sigma = self.sigma_at(self.grid.nodes)
        self.a0 = 1.0 / (1.0 + self.grid.tau * self.space.eigvals)

    def sigma_at(self, times):
        """sigma(t) = time_factor(t) * profile in eigen coordinates, one row per time."""
        return np.outer([self.sigma_spec.time_factor(t) for t in times], self.profile)

    def a0_rows(self, n_rows):
        """A0's diagonal as n_rows read-only rows, built on the first call for that count."""
        if (rows := self._a0_rows.get(n_rows)) is None:
            rows = self._a0_rows[n_rows] = np.tile(self.a0, (n_rows, 1))
            rows.flags.writeable = False
        return rows

    def with_grid(self, grid):
        """Same problem on another time grid (sigma re-sampled in time)."""
        return replace(self, grid=grid)

    def multipliers(self, driver):
        """Step multipliers m_n of a driver on this grid (ValueError for one on another):
        the driver's 1 + dW_{n+1} for linear noise, ones for additive."""
        got, want = ((g.horizon, g.n_steps) for g in (driver.grid, self.grid))
        if got != want:
            raise ValueError(f"driver grid (horizon, steps) {got} is not the problem's {want}")
        return driver.mult if self.noise == "linear" else np.ones((self.grid.n_steps, 1, 1, 1))


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
    return ProblemData(space, grid, alpha, x0, profile, sigma_spec, noise)


def _solve_views(data, driver, proc, mult):
    """Per step n of a solve into ``proc``: slot n, slot n + 1 and its sign blocks, scratch
    sign blocks, A0 rows, m_n and the driver's sigma_n dW_{n+1} term (``noise_terms``)."""
    x = list(proc.values)
    # X_{n+1} as its sign blocks, which the parent rows X_n and m_n broadcast against; A0 and
    # the scratch as rows of the largest slice: A0 scales in one contiguous multiply, and
    # slices of one size share one scratch block and one A0 block
    scale = data.a0_rows(len(x[-1]))
    tmp = np.empty(scale.shape)
    blocks = {len(r): (driver.siblings(tmp[: len(r)]), scale[: len(r)]) for r in x[1:]}
    parts, scales = zip(*(blocks[len(r)] for r in x[1:]))
    terms = driver.noise_terms(data.sigma[: len(mult)])
    return x[:-1], x[1:], [driver.siblings(r) for r in x[1:]], parts, scales, list(mult), *terms


def solve_forward(data, driver, control=None, out=None):
    """Run the full state recursion from the problem's initial datum.

    Parameters
    ----------
    data : ProblemData, whose ``a0_rows`` for the largest slice scale every step
    driver : TreeDriver or EnsembleDriver on the problem's grid (``ValueError`` if not)
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
        descent: a long ensemble then reuses its pages, and later solves its
        step views.  Its values are never read.

    Returns
    -------
    AdaptedProcess over time indices 0..N; for a gain pair, the pair
    (state, realized control over 0..N-1).
    """
    N, tau, d = data.grid.n_steps, data.grid.tau, data.space.dim
    mult = data.multipliers(driver)

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
    # views stay only with storage that a caller hands in, and so may hand in again
    build = partial(_solve_views, data, driver, proc, mult)
    steps = build() if out is None else proc.step_views("forward", data, driver, build)
    for n, (xn, rows, nxt, part, scale, mn, noise, sn, dwn) in enumerate(zip(*steps)):
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
            nxt += np.multiply(xn, mn, out=part)
        if sn is not None:
            np.multiply(sn, dwn, out=noise)
        nxt += noise
        rows *= scale
    return proc if gains is None else (proc, control)
