"""Time grids and discrete Wiener drivers.

Two interchangeable sources of Wiener increments feed the space-time
scheme:

* ``TreeDriver`` -- the binary scenario tree with increments +-sqrt(tau).
  Level n holds 2^n nodes in sign-major order: node s at level n has
  children s (step-(n+1) increment -sqrt(tau)) and s + 2^n (+sqrt(tau)),
  so the step-k increment of a node is read off bit k - 1 of its index.
  Conditional expectations are exact subtree averages, taken one level
  at a time by the sibling-pair average ``parent_mean``, so every
  quantity computed on the tree is free of sampling error.

* ``EnsembleDriver(horizon, increments)`` -- Monte Carlo paths of Gaussian
  increments from a counter-based generator, so path p is the same however
  many paths are drawn, in whatever chunks.  The grid has one step per
  increment column, and the Wiener values W are computed at construction.

Both expose the protocol of the forward and backward recursions:
``kind`` ("tree" or "ensemble": average subtrees or regress),
``parent_mean`` (one level up) and ``siblings``, a level-(n+1) slice as
contiguous sign blocks, (2, 2^n, d) or (1, P, d), which parent rows x
reach as the broadcast view ``x[None]``.  The read-only columns ``dw[n]``
and ``mult[n]`` of dW_{n+1} and 1 + dW_{n+1}, cached at construction,
broadcast against it: one (2, 1, 1) column for every tree step,
(1, P, 1) per ensemble step.  They lay out a process as one (R, d) row
array: slice n starts at row ``offset(n)`` (2^n - 1 or n P), ``split``
views its slices, ``slice_means`` averages row dots per slice and
``lift_scaled`` scales a process onto the children in the next slices of
another.  ``noise_terms`` gives each step's sigma_n dW_{n+1}: contiguous
rows on a tree, the factors of a per-step product on an ensemble.  Only
ensembles regress on W, so only they offer ``brownian``.
"""

from dataclasses import dataclass

import numpy as np

TREE_DEPTH_CAP = 16
_LEVEL_STARTS = (1 << np.arange(63)) - 1  # tree level n starts at row 2^n - 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T with step tau = T / N."""

    horizon: float
    n_steps: int
    tau: float
    nodes: np.ndarray


def make_time_grid(horizon, n_steps):
    """Build the uniform time grid on [0, horizon] with n_steps steps.

    Raises
    ------
    ValueError
        If n_steps is not an integer (NumPy integers count) of at least 1,
        horizon <= 0, or the step size exceeds 1 (the one-step scheme
        coefficients 1 + increment must stay well defined in mean square).
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps < 1:
        raise ValueError(f"need at least one time step, got {n_steps}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    tau = horizon / n_steps
    if tau > 1.0:
        raise ValueError(f"step size tau = {tau} exceeds 1; refine the time grid")
    return TimeGrid(horizon=float(horizon), n_steps=int(n_steps), tau=tau, nodes=tau * np.arange(n_steps + 1))


def _slice_count(driver, rows, k):
    """k, if the 2-D ``rows`` are exactly slices 0..k-1 of ``driver``, k >= 1; else ValueError."""
    if rows.ndim != 2 or k < 1 or len(rows) != driver.offset(k):
        raise ValueError(f"{driver.kind} storage needs 2-D rows filling whole slices, got shape {rows.shape}")
    return k


@dataclass
class TreeDriver:
    """Binary scenario tree of Wiener increments +-sqrt(tau)."""

    grid: TimeGrid
    kind = "tree"

    def __post_init__(self):
        n = self.grid.n_steps
        if n > TREE_DEPTH_CAP:
            raise ValueError(f"tree depth {n} exceeds cap {TREE_DEPTH_CAP} (2^{n} leaves); use an ensemble")
        dw = np.array([-1.0, 1.0]).reshape(2, 1, 1) * np.sqrt(self.grid.tau)
        self.dw = np.broadcast_to(dw, (n, 2, 1, 1))
        self.mult = np.broadcast_to(1.0 + dw, (n, 2, 1, 1))

    def offset(self, n):
        """First row of level n: levels 0..n-1 fill 2^n - 1 rows."""
        return (1 << n) - 1

    def split(self, rows):
        """The levels of a row array as views, a list of (2^n, d) arrays."""
        k = _slice_count(self, rows, len(rows).bit_length())
        return [rows[self.offset(n) : self.offset(n + 1)] for n in range(k)]

    def slice_means(self, a, b):
        """Per-level means of the row dots <a_r, b_r>: one einsum and one reduceat."""
        starts = _LEVEL_STARTS[: len(a).bit_length()]
        return np.add.reduceat(np.einsum("rd,rd->r", a, b), starts) / (starts + 1)

    def siblings(self, values):
        """Level-(n+1) node values as a (2, 2^n, d) view: minus-children, then plus-children."""
        return values.reshape(2, -1, values.shape[-1])

    def lift_scaled(self, factor, rows, out):
        for n in range(len(rows).bit_length()):
            child, size = self.offset(n + 1), 1 << n
            minus = np.multiply(factor, rows[size - 1 : child], out=out[child : child + size])
            out[child + size : child + 2 * size] = minus  # the plus-children copy the minus-children

    def noise_terms(self, sigma):
        """sigma_n dW_{n+1} of every step, with None for its factors: contiguous (2, 2^n, d)
        blocks of one process of rows, which a step adds faster than it broadcasts (2, 1, d)."""
        levels = self.split(np.empty((self.offset(len(sigma) + 1), sigma.shape[1])))[1:]
        terms = [np.multiply(s, w, out=self.siblings(v)) for s, w, v in zip(sigma, self.dw, levels)]
        return terms, [None] * len(terms), [None] * len(terms)

    def parent_mean(self, values):
        """Average sibling pairs: level-k node values conditioned on level k - 1."""
        half = len(values) // 2
        mean = values[:half] + values[half:]
        mean *= 0.5
        return mean


@dataclass
class EnsembleDriver:
    """Monte Carlo ensemble of Gaussian Wiener increments on [0, horizon].

    ``increments[p, k]`` is the step from t_k to t_{k+1} on path p, made
    read-only at construction, which derives the grid, the cached columns and W from them.
    """

    horizon: float
    increments: np.ndarray
    kind = "ensemble"

    def __post_init__(self):
        self.increments = np.asarray(self.increments, dtype=float)
        if self.increments.ndim != 2 or len(self.increments) < 1:
            raise ValueError(f"need (P >= 1, N) increments, got shape {self.increments.shape}")
        self.increments.flags.writeable = False
        self.grid = make_time_grid(self.horizon, self.increments.shape[1])
        self.dw = self.increments.T[:, None, :, None]
        self.mult = np.add(1.0, self.dw, order="C")
        self.mult.flags.writeable = False
        self.w = np.zeros((self.n_paths, self.grid.n_steps + 1))
        np.cumsum(self.increments, axis=1, out=self.w[:, 1:])
        self.w.flags.writeable = False

    @property
    def n_paths(self):
        return self.increments.shape[0]

    def offset(self, n):
        """First row of slice n: slices 0..n-1 fill n P rows."""
        return n * self.n_paths

    def split(self, rows):
        """The slices of a row array as one (K, P, d) view."""
        k = _slice_count(self, rows, len(rows) // self.n_paths)
        return rows.reshape(k, self.n_paths, rows.shape[1])

    def slice_means(self, a, b):
        """Per-slice means of the row dots <a_r, b_r>: one einsum."""
        return np.einsum("kpd,kpd->k", self.split(a), self.split(b)) / self.n_paths

    def siblings(self, values):
        """Path values as a (1, P, d) view: every path is its own only child."""
        return values[None]

    def lift_scaled(self, factor, rows, out):
        np.multiply(factor, rows, out=out[self.offset(1) :])

    def noise_terms(self, sigma):
        """One (1, P, d) scratch per step, with the factors sigma_n and dW_{n+1} that the step
        multiplies into it: the whole term would fill a process."""
        scratch = np.empty((1, self.n_paths, sigma.shape[1]))
        return [scratch] * len(sigma), list(sigma), list(self.dw)

    def parent_mean(self, values):
        return values

    def brownian(self, level):
        """W(t_level) per path: a view of the (P, N+1) array W (``level`` may be a slice)."""
        return self.w[:, level]


def gaussian_driver(grid, n_paths, seed):
    """Draw a Gaussian increment ensemble with keyed per-path streams.

    Path p uses the Philox stream ``jumped(p)`` of the seeded generator, so
    the sample for a given (seed, p) never depends on n_paths: enlarging
    the ensemble appends paths without perturbing existing ones.

    Returns
    -------
    EnsembleDriver; ValueError unless n_paths is an integer (NumPy integers count) of at least 1
    """
    if isinstance(n_paths, bool) or not isinstance(n_paths, (int, np.integer)):
        raise ValueError(f"n_paths must be an integer, got {n_paths!r}")
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    root = np.random.Philox(key=seed)
    inc = np.empty((n_paths, grid.n_steps))
    for p in range(n_paths):
        gen = np.random.Generator(root.jumped(p))
        inc[p] = gen.standard_normal(grid.n_steps)
    inc *= np.sqrt(grid.tau)
    return EnsembleDriver(grid.horizon, inc)


def refine_common_path(driver):
    """Coarsen an ensemble by one level: pairwise-summed increments on N/2 steps.

    The returned driver lives on the grid with half as many steps but rides
    the same underlying Wiener paths, which is what coupled coarse/fine
    error estimates need.
    """
    n = driver.grid.n_steps
    if n % 2 != 0:
        raise ValueError(f"cannot halve an odd number of steps ({n})")
    inc = driver.increments[:, 0::2] + driver.increments[:, 1::2]
    return EnsembleDriver(driver.grid.horizon, inc)
