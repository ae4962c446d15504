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
noise; all three are the same recursion with parts of the data masked
out, so one kernel drives everything.

The adjoints L* and Lhat* and the gradient kernel (all in
:mod:`slqheat.adjoint`) share a single pathwise backward recursion: with
V a process, eta a terminal value and multipliers m_k = 1 + dW_k (linear
noise; m_k = 1 for additive),

    G_N = eta,
    G_n = A0 (V_{n+1} + m_{n+2} G_{n+1}),   products starting two past n,
    G_n = A0 m_{n+1} (V_{n+1} + G_{n+1}),   products starting one past n,

after which conditioning G_n on time t_n (done in :mod:`slqheat.adjoint`)
yields the adjoint slice.  The two product offsets distinguish the
gradient/adjoint operators from the implicit-Euler backward-equation
solution.

Both sweeps run in the M-orthonormal eigenbasis of :mod:`slqheat.mesh`,
where A0 = diag(1 / (1 + tau lambda_i)) is an elementwise scale and the
L2 inner product is the euclidean one.  Every process slice holds eigen
coordinates c = V^T M v; the projected data of :class:`ProblemData` stay
nodal and are converted once per sweep, and ``space.from_eigen`` gives
nodal values back.
"""

from dataclasses import dataclass, replace

import numpy as np

from .mesh import l2_project, ritz_project


@dataclass
class AdaptedProcess:
    """Time-indexed family of per-scenario coefficient arrays.

    ``values[k]`` holds the slice at global time index ``start + k`` with
    shape (n_scenarios(start + k), d): one row per tree node at that level,
    or one row per Monte Carlo path.  Rows are eigen coordinates
    c = V^T M v; ``space.from_eigen`` turns a slice into nodal values.
    """

    driver: object
    start: int
    values: list

    @property
    def stop(self):
        """Largest global time index carried by the process."""
        return self.start + len(self.values) - 1

    def at(self, n):
        """Slice at global time index n."""
        if n < self.start or n > self.stop:
            raise IndexError(f"time index {n} outside [{self.start}, {self.stop}]")
        return self.values[n - self.start]

    def set(self, n, arr):
        self.values[n - self.start] = arr

    def copy(self):
        return AdaptedProcess(self.driver, self.start, [v.copy() for v in self.values])

    def map(self, fn):
        return AdaptedProcess(self.driver, self.start, [fn(v) for v in self.values])

    def __add__(self, other):
        return AdaptedProcess(
            self.driver, self.start, [a + b for a, b in zip(self.values, other.values, strict=True)]
        )

    def __sub__(self, other):
        return AdaptedProcess(
            self.driver, self.start, [a - b for a, b in zip(self.values, other.values, strict=True)]
        )

    def __rmul__(self, scalar):
        return self.map(lambda v: scalar * v)

    def axpy(self, a, other):
        """In-place self += a * other (slice by slice, no new storage)."""
        for v, w in zip(self.values, other.values, strict=True):
            v += a * w
        return self


def zeros_process(driver, dim, start, stop):
    """All-zero adapted process over global time indices start..stop."""
    vals = [np.zeros((driver.n_scenarios(n), dim)) for n in range(start, stop + 1)]
    return AdaptedProcess(driver, start, vals)


@dataclass(frozen=True)
class SigmaSpec:
    """Separable data functions: initial state and noise profile.

    The noise coefficient is sigma(t, x) = scale * time_factor(t) * profile(x);
    derivatives are carried alongside so the Ritz projection is available.
    """

    x0: callable
    x0_dx: callable
    profile: callable
    profile_dx: callable
    time_factor: callable
    scale: float = 1.0


def default_sigma_spec(scale=1.0):
    """sin(pi x) initial state with sigma(t, x) = scale * exp(-t) sin(pi x)."""
    return SigmaSpec(
        x0=lambda x: np.sin(np.pi * x),
        x0_dx=lambda x: np.pi * np.cos(np.pi * x),
        profile=lambda x: np.sin(np.pi * x),
        profile_dx=lambda x: np.pi * np.cos(np.pi * x),
        time_factor=lambda t: np.exp(-t),
        scale=scale,
    )


@dataclass
class ProblemData:
    """Discretized problem: space, grid, cost weight and projected data.

    ``x0``, ``sigma`` and ``profile`` are nodal coefficient vectors.
    ``sigma`` has N + 1 slots (slice n is sigma(t_n)); the forward scheme
    reads slots 0..N-1 and the terminal slot rides along for diagnostics.
    ``profile`` is the scaled projected noise profile, sigma(t_n) =
    time_factor(t_n) * profile.
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


def make_problem(space, grid, alpha=1.0, sigma_spec=None, noise="linear", projection="ritz"):
    """Project the continuous data onto the discrete spaces.

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
    projection : {'ritz', 'l2'}
        Spatial projection used for the initial state and the noise
        profile.  The scheme's analysis wants the Ritz projection; the L2
        variant exists for comparison runs.

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
    if projection == "ritz":
        x0 = ritz_project(space, sigma_spec.x0_dx)
        prof = ritz_project(space, sigma_spec.profile_dx)
    elif projection == "l2":
        x0 = l2_project(space, sigma_spec.x0)
        prof = l2_project(space, sigma_spec.profile)
    else:
        raise ValueError(f"unknown projection {projection!r}")
    tf = np.array([sigma_spec.time_factor(t) for t in grid.nodes])
    sigma = sigma_spec.scale * np.outer(tf, prof)
    return ProblemData(
        space=space, grid=grid, alpha=alpha, x0=x0, sigma=sigma,
        profile=sigma_spec.scale * prof, sigma_spec=sigma_spec, noise=noise,
    )


def a0_scale(space, tau):
    """Diagonal of the implicit Euler step A0 = (M + tau A)^{-1} M in eigen coordinates."""
    return 1.0 / (1.0 + tau * space.eigvals)


def a0_apply(space, tau, c):
    """One implicit Euler smoothing step A0 c on eigen coordinates."""
    return np.asarray(c, dtype=float) * a0_scale(space, tau)


def _control_slice(control, n, t, x_slice):
    """Evaluate the control at the left node t_n (or fetch the stored slice)."""
    if control is None:
        return None
    if isinstance(control, AdaptedProcess):
        return control.at(n)
    return control(t, x_slice)


def _forward(data, driver, x0, control, sigma, return_control=False):
    """Shared forward recursion; x0/control/sigma may be masked to zero.

    ``x0`` and ``sigma`` are nodal; the recursion runs in eigen coordinates.
    """
    space, grid = data.space, data.grid
    N, tau = grid.n_steps, grid.tau
    d = space.dim
    linear = data.noise == "linear"
    scale = a0_scale(space, tau)
    x0 = np.zeros(d) if x0 is None else space.to_eigen(x0)
    sigma = None if sigma is None else space.to_eigen(sigma)

    values = [np.array(np.broadcast_to(x0, (driver.n_scenarios(0), d)), dtype=float)]
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
        rhs *= scale
        values.append(rhs)
    proc = AdaptedProcess(driver, 0, values)
    if return_control:
        return proc, AdaptedProcess(driver, 0, realized)
    return proc


def solve_forward(data, driver, control=None, return_control=False):
    """Run the full state recursion from the problem's initial datum.

    Parameters
    ----------
    data : ProblemData
    driver : TreeDriver or EnsembleDriver
    control : None, AdaptedProcess, or callable
        A stored control is read slice by slice; a callable is sampled at
        the left node of each step as control(t_n, x_slice) and may depend
        on the current state (feedback).  Both take and return eigen
        coordinates.  None means zero control.
    return_control : bool
        Also return the realized control as an AdaptedProcess (useful for
        feedback runs).

    Returns
    -------
    AdaptedProcess over time indices 0..N (and the realized control if
    requested).
    """
    return _forward(data, driver, data.x0, control, data.sigma, return_control)


def apply_Gamma(data, driver, x0=None):
    """Propagate a nodal initial datum with zero control and zero noise data."""
    return _forward(data, driver, data.x0 if x0 is None else x0, None, None)


def apply_L(data, driver, control):
    """Control-to-state map: zero initial datum, zero inhomogeneity."""
    return _forward(data, driver, None, control, None)


def compute_f(data, driver):
    """Inhomogeneous part driven by sigma dW alone."""
    return _forward(data, driver, None, None, data.sigma)


def backward_kernel(data, driver, v_at, eta, product_offset):
    """Pathwise backward recursion shared by all adjoint-type operators.

    Yields (n, G_n) for n = N-1 down to 0 where G_n is a pathwise array of
    eigen coordinates, shape (n_leaves, d).  ``v_at(n)`` returns the
    running-source slice at time index n (or None for zero); ``eta`` is
    the terminal value (array at the finest level, or None).  ``product_offset`` selects where the
    noise multipliers start relative to the conditioning time: offset 2
    gives the adjoint/gradient kernel, offset 1 the implicit-Euler
    backward equation.  For additive noise the multipliers collapse to 1.
    """
    space, grid = data.space, data.grid
    N, tau = grid.n_steps, grid.tau
    d = space.dim
    linear = data.noise == "linear"
    scale = a0_scale(space, tau)
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
        G = G * scale
        yield n, G
