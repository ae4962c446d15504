"""Time grids and discrete Wiener drivers.

Two interchangeable sources of Wiener increments feed the space-time
scheme:

* ``TreeDriver`` -- the binary scenario tree with increments +-sqrt(tau).
  Level n holds 2^n nodes; node s at level n has children 2s and 2s+1 at
  level n+1, and the step-(n+1) increment attached to a child is read off
  its last bit (odd child -> +sqrt(tau), even child -> -sqrt(tau)).
  Conditional expectations are exact subtree averages, taken one level
  at a time by the sibling-pair average ``parent_mean``, so every
  quantity computed on the tree is free of sampling error.

* ``EnsembleDriver`` -- Monte Carlo paths of Gaussian increments with a
  counter-based generator, so path p is the same no matter how many paths
  are drawn or in which chunks.

Both expose the same small protocol (``kind``, ``n_scenarios``,
``increments_at``, ``child_expand``, ``parent_mean``) consumed by the
forward and backward recursions (``child_expand`` and ``parent_mean``
move one level down and up; the identity on ensembles); ``kind``
("tree" or "ensemble") tells the conditioned backward sweep of
:mod:`slqheat.adjoint` whether to average subtrees or regress.  Only
ensembles regress on the Wiener values, so only they offer ``brownian``.
"""

from dataclasses import dataclass, field

import numpy as np

TREE_DEPTH_CAP = 16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T with step tau = T / N."""

    horizon: float
    n_steps: int
    tau: float
    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))


def make_time_grid(horizon, n_steps):
    """Build the uniform time grid on [0, horizon] with n_steps steps.

    Raises
    ------
    ValueError
        If n_steps < 1 or the step size exceeds 1 (the one-step scheme
        coefficients 1 + increment must stay well defined in mean square).
    """
    if n_steps < 1:
        raise ValueError(f"need at least one time step, got {n_steps}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    tau = horizon / n_steps
    if tau > 1.0:
        raise ValueError(f"step size tau = {tau} exceeds 1; refine the time grid")
    return TimeGrid(horizon=float(horizon), n_steps=n_steps, tau=tau, nodes=tau * np.arange(n_steps + 1))


@dataclass
class TreeDriver:
    """Binary scenario tree of Wiener increments +-sqrt(tau)."""

    grid: TimeGrid
    _increment_cache: dict = field(repr=False, default_factory=dict)
    kind = "tree"

    def __post_init__(self):
        if self.grid.n_steps > TREE_DEPTH_CAP:
            raise ValueError(
                f"tree depth {self.grid.n_steps} exceeds cap {TREE_DEPTH_CAP} "
                f"(2^{self.grid.n_steps} leaves); use a Gaussian ensemble instead"
            )

    def n_scenarios(self, level):
        return 1 << level

    def increments_at(self, step):
        """Step increments attached to the level-``step`` nodes, shape (2^step,), read-only."""
        if step not in self._increment_cache:
            inc = np.where(np.arange(1 << step) & 1, 1.0, -1.0) * np.sqrt(self.grid.tau)
            inc.flags.writeable = False
            self._increment_cache[step] = inc
        return self._increment_cache[step]

    def child_expand(self, values):
        """Lift node values to their children one level down."""
        return np.repeat(np.asarray(values), 2, axis=0)

    def parent_mean(self, values):
        """Average sibling pairs: level-k node values conditioned on level k - 1."""
        return 0.5 * (values[0::2] + values[1::2])


@dataclass
class EnsembleDriver:
    """Monte Carlo ensemble of Gaussian Wiener increments.

    ``increments[p, k]`` is the step from t_k to t_{k+1} on path p.
    """

    grid: TimeGrid
    increments: np.ndarray
    _brownian: np.ndarray = field(repr=False, default=None)
    kind = "ensemble"

    @property
    def n_paths(self):
        return self.increments.shape[0]

    def n_scenarios(self, level):
        return self.n_paths

    def increments_at(self, step):
        return self.increments[:, step - 1]

    def child_expand(self, values):
        return np.asarray(values)

    def parent_mean(self, values):
        return values

    def brownian(self, level):
        """W(t_level) per path: a view of the cached (P, N+1) array (``level`` may be a slice)."""
        if self._brownian is None:
            w = np.empty((self.n_paths, self.grid.n_steps + 1))
            w[:, 0] = 0.0
            np.cumsum(self.increments, axis=1, out=w[:, 1:])
            self._brownian = w
        return self._brownian[:, level]


def gaussian_driver(grid, n_paths, seed):
    """Draw a Gaussian increment ensemble with keyed per-path streams.

    Path p uses the Philox stream ``jumped(p)`` of the seeded generator, so
    the sample for a given (seed, p) never depends on n_paths: enlarging
    the ensemble appends paths without perturbing existing ones.

    Returns
    -------
    EnsembleDriver
    """
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    root = np.random.Philox(key=seed)
    inc = np.empty((n_paths, grid.n_steps))
    for p in range(n_paths):
        gen = np.random.Generator(root.jumped(p))
        inc[p] = gen.standard_normal(grid.n_steps)
    inc *= np.sqrt(grid.tau)
    return EnsembleDriver(grid=grid, increments=inc)


def refine_common_path(driver):
    """Coarsen an ensemble by one level: pairwise-summed increments on N/2 steps.

    The returned driver lives on the grid with half as many steps but rides
    the same underlying Wiener paths, which is what coupled coarse/fine
    error estimates need.
    """
    n = driver.grid.n_steps
    if n % 2 != 0:
        raise ValueError(f"cannot halve an odd number of steps ({n})")
    coarse_grid = make_time_grid(driver.grid.horizon, n // 2)
    inc = driver.increments[:, 0::2] + driver.increments[:, 1::2]
    return EnsembleDriver(grid=coarse_grid, increments=inc)
