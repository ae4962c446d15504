"""Brute-force reference implementations used only by the test suite.

Everything here evaluates the defining formulas literally: dense matrix
powers, explicit noise-multiplier products per leaf, and exact tree
averages.  Slow on purpose, for small trees only.

The library numbers tree nodes sign-major (the children of node s at
level n are s and s + 2^n); the helpers here keep the interleaved order
they were written in (children 2s and 2s + 1), where the step-k
increment is bit n - k of a level-n index.  Tests compare the two through
``bit_reverse_rows`` (level n's interleaved index is the n-bit reversal of
its sign-major one) and ``bit_reverse`` (a whole process), so the
verbatim pins stay exact; ``sibling_mean`` is the interleaved
``parent_mean``.

The library's processes and problem data hold eigen coordinates; every
oracle here works on nodal coefficient vectors with the mass matrix M,
and ``nodal`` converts a library process for comparison.  Every process
a test builds is joined from its per-slice arrays by ``process``, and
``n_scenarios`` is the row count of one slice, which the library reads
only as a difference of ``driver.offset``.
``nodal_forward`` (which also takes a nodal callable control),
``nodal_backward_kernel`` and the ``nodal_*`` adjoint objects are the
nodal sweeps of the library with A0 as the dense matrix
(M + tau A)^{-1} M, kept as the equivalence oracle of the eigen-coordinate
sweeps; ``nodal_backward_kernel`` also keeps the leaf-wise storage
(every slice at the 2^N leaves, through ``pathwise``) that the library's
level-collapsing sweep replaced.  ``apply_Gamma``, ``apply_L``,
``compute_f``, ``gradient``, ``bsde_martingale`` (the Zbar0 component of
the backward equation) and ``bsde_residual`` are library operators
that only the tests use, as are ``mass`` and ``stiffness`` (the nodal
mass and stiffness matrices M and A, which the library's closed-form
spectrum does not assemble), ``eigvecs`` (the dense sine eigenvector
matrix V, which the library applies as a sine transform), the nodal
helpers ``nodes``, ``to_eigen`` (c = V^T M v) and
``prolongation_matrix`` that the library dropped when its mesh pairing
became the closed-form ``alias_coefficients``, and
``cross_gramian`` (the dense C = V_f^T M_f P V_c those give),
``ritz_load`` (the load b_j = (f', phi_j') of the Ritz projection),
``nodal_ritz_project`` (the Ritz projection by a nodal solve, as the
library computed it before the eigen-coordinate form), ``a0_scale`` (the
diagonal of A0, which the library's problem data now hold as ``a0``) and
``a0_apply`` (one implicit Euler step),
``tree_condexp`` (a subtree average over any number of levels, where the
library applies the sibling-pair average level by level), ``l2_project``
(the L2 projection the scheme does not use; the data are Ritz-projected)
and ``riccati_mode_derivative`` (the exact derivative of the Riccati
modes).  ``apply_L_adjoint`` and ``apply_Lhat_adjoint`` are the adjoints
L* and Lhat* on trees, read off the library's gradient kernel at
alpha = 0 from a state that is xi, or zero but for its terminal slice.
``feedback_control`` samples the gains (p(t_n), phi(t_n)) of the
semidiscrete feedback law at given times, reading ``p_at`` and
``phi_at`` (with ``fine_grid``, the nodes of the dense grid), in the
gain-pair form that ``solve_forward`` takes.  ``direct_solve``
(conjugate gradients on the optimality system) and
``estimate_operator_norm`` (power iteration) reach
the discrete optimum and the Hessian norm without the discrete Riccati
recursion, which they cross-check.  ``full_closed_loop_stream`` and
``entry_moments`` (the entry-indexed sweep of stacked solutions, as the
library ran it before it swept one solution's diagonal and the
difference of a mesh pair) play the same part for the moment sweeps:
the full-matrix stream reads the mode-major record that ``mode_major``
builds (the layout the library stored before it went time-major), and
``panel_hs_sweep`` is the Hermite-Simpson sweep one panel at a time, as
the library ran it before its panel coefficients became whole-array
operations.  ``full_joint_errors`` sweeps the dense blocks of a mesh
pair in the coordinates (x_r - C x_c, x_c) with the dense C; in
``np.longdouble`` it is the accuracy reference of the spatial errors.
``pair_moments`` and ``pair_joint_errors`` are the difference sweep and
the spatial errors as the library computed them before one function
derived the alias pairing itself: the caller paired the modes, the sweep
returned five moment arrays, and the errors gathered the coarse columns
again.
``solve_riccati_dense`` is an independent matrix Riccati integrator.
Every Riccati and moment oracle reads the noise through eps, the factor
that ``ProblemData`` derives (1 for linear noise, 0 for additive).
The ``slice_*`` functions condition and reduce one slice at a time, as
the library did before it batched the regression solves and
stacked ensemble processes into one (K, P, d) array; the kernel and
backward-equation ones read ``backward_kernel``, the unconditioned
generator the library's sweep streamed before it conditioned as it goes;
``slice_gradient_descent`` is the descent loop that updated the control
one kernel slice at a time before the whole-array step.
``copying_solve_forward`` and ``copying_sweep`` are the forward loop and
the conditioned backward sweep as the library ran them before tree levels
became broadcast views in sign-major order: they repeat parent rows onto
their children (``child_expand``) and rebuild each step's multipliers
from the per-level increments (``increments_at``), the two driver
methods those views and the drivers' cached columns replaced;
``einsum_slice_means`` is the tree ``slice_means`` as averaged row sums,
before one dot per level.
"""

import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from slqheat.adjoint import _RIDGE, _regression_features, k_htau
from slqheat.forward import AdaptedProcess, solve_forward, zeros_process
from slqheat.mesh import _GAUSS_X, _quad_points, alias_coefficients
from slqheat.optimizer import GdTrace, control_inner, control_norm_sq, cost, kappa_bound
from slqheat.riccati import (
    _closed_loop_moments,
    _hs_sweep,
    _simpson_panel_values,
    _stationary_roots,
    riccati_mode_values,
)


def a0_scale(space, tau):
    """Diagonal 1 / (1 + tau lambda_i) of the implicit Euler step A0 = (M + tau A)^{-1} M."""
    return 1.0 / (1.0 + tau * space.eigvals)


def a0_apply(space, tau, c):
    """One implicit Euler smoothing step A0 c on eigen coordinates."""
    return np.asarray(c, dtype=float) * a0_scale(space, tau)


def tree_condexp(values, from_level, to_level):
    """Exact conditional expectation on the binary tree.

    Averages an array of per-node values at ``from_level`` (first axis of
    length 2^from_level) over the subtrees rooted at ``to_level``.
    """
    if not 0 <= to_level <= from_level:
        raise ValueError(f"cannot condition level {from_level} data on level {to_level}")
    values = np.asarray(values)
    if values.shape[0] != 1 << from_level:
        raise ValueError(f"level {from_level} data need {1 << from_level} rows, got {len(values)}")
    lead = 1 << to_level
    fan = 1 << (from_level - to_level)
    return values.reshape((lead, fan) + values.shape[1:]).mean(axis=1)


def dense_a0(space, tau):
    """Dense one-step operator (M + tau A)^{-1} M."""
    return np.linalg.solve(mass(space) + tau * stiffness(space), mass(space))


def process(driver, slices):
    """The process over 0..K-1 of K per-slice arrays (a list, or a (K, P, d) array), joined into rows.

    Every process the tests build goes through here.
    """
    return AdaptedProcess(driver, np.concatenate(slices))


def n_scenarios(driver, level):
    """Rows of slice ``level``: 2^level tree nodes, or the paths."""
    return driver.offset(level + 1) - driver.offset(level)


def nodal(space, proc):
    """A library process (eigen coordinates) with every slice in nodal values."""
    return process(proc.driver, [space.from_eigen(v) for v in proc.values])


def add(u, v, scale=1.0):
    """The process u + scale * v, slice by slice."""
    return process(u.driver, [a + scale * b for a, b in zip(u.values, v.values, strict=True)])


# -- leaf-wise views and test-only operators ----------------------------------


def increments_at(driver, step):
    """Step-``step`` increments of the level-``step`` nodes or of the paths, one per row.

    The per-level array the drivers handed out before they cached one
    column per step: alternating -+sqrt(tau) on a tree, the step column of
    ``increments`` (a view) on an ensemble.
    """
    if driver.kind == "tree":
        return np.where(np.arange(1 << step) & 1, 1.0, -1.0) * np.sqrt(driver.grid.tau)
    return driver.increments[:, step - 1]


def bit_reverse_rows(values, level):
    """Level-``level`` tree rows moved between sign-major and interleaved order.

    Row i of one order is row r(i) of the other, with r the
    ``level``-bit reversal, so the permutation is its own inverse.
    """
    values = np.asarray(values)
    if len(values) != 1 << level:
        raise ValueError(f"level {level} data need {1 << level} rows, got {len(values)}")
    rows = np.arange(1 << level)
    rev = np.zeros_like(rows)
    for bit in range(level):
        rev |= ((rows >> bit) & 1) << (level - 1 - bit)
    return values[rev]


def bit_reverse(proc):
    """A tree process with every slice through :func:`bit_reverse_rows` (ensembles: unchanged)."""
    if proc.driver.kind != "tree":
        return proc
    return process(proc.driver, [bit_reverse_rows(v, n) for n, v in enumerate(proc.values)])


def sibling_mean(driver, values):
    """The interleaved ``parent_mean``: averages pairs 2s, 2s + 1, bit for bit (ensembles: unchanged)."""
    if driver.kind != "tree":
        return values
    return 0.5 * (values[0::2] + values[1::2])


def child_expand(driver, values):
    """Level-n values repeated onto their level-(n+1) children (ensembles: unchanged)."""
    if driver.kind != "tree":
        return np.asarray(values)
    return np.repeat(np.asarray(values), 2, axis=0)


def pathwise(driver, values, level):
    """Broadcast level-``level`` values to the 2^N tree leaves (ensembles: unchanged)."""
    if driver.kind != "tree":
        return np.asarray(values)
    return np.repeat(np.asarray(values), 1 << (driver.grid.n_steps - level), axis=0)


def pathwise_increment(driver, step):
    """Step-``step`` increment seen by each leaf or path, one per level-N row."""
    return pathwise(driver, increments_at(driver, step), step)


# The parts of X = Gamma x0 + L U + f are solve_forward on the problem with
# the other data zeroed: adding exact zeros leaves every float unchanged.


def apply_Gamma(data, driver, x0=None):
    """Propagate an initial datum (eigen coordinates) with zero control and zero noise data."""
    x0 = data.x0 if x0 is None else x0
    return solve_forward(replace(data, x0=x0, profile=0.0 * data.profile), driver)


def apply_L(data, driver, control):
    """Control-to-state map: zero initial datum, zero inhomogeneity."""
    return solve_forward(replace(data, x0=0.0 * data.x0, profile=0.0 * data.profile), driver, control)


def compute_f(data, driver):
    """Inhomogeneous part driven by sigma dW alone."""
    return solve_forward(replace(data, x0=0.0 * data.x0), driver)


def apply_L_adjoint(data, driver, xi):
    """L* xi over n = 0..N-1 of a tree process xi over 0..N: -K(xi) at alpha = 0.

    With alpha = 0 the gradient kernel K X is -L*(X); on a tree its sweep
    reads no X_0, so slice 0 of xi does not enter.
    """
    out = k_htau(replace(data, alpha=0.0), xi)
    np.negative(out.rows, out=out.rows)
    return out


def apply_Lhat_adjoint(data, driver, eta):
    """Lhat* eta over n = 0..N-1 of a tree terminal eta: -K(0, ..., 0, eta) / tau at alpha = 0.

    The sweep adds its source -tau X_N where the terminal value enters, so
    a state that is zero but for X_N = eta gives K = -tau Lhat* eta.
    """
    N, d = data.grid.n_steps, data.space.dim
    slices = [np.zeros((n_scenarios(driver, n), d)) for n in range(N)] + [eta]
    out = k_htau(replace(data, alpha=0.0), process(driver, slices))
    out.rows /= -data.grid.tau
    return out


def gradient(data, driver, control):
    """DJ(U) = U - K X(U) as an adapted process over 0..N-1."""
    state = solve_forward(data, driver, control)
    return control - k_htau(data, state)


def direct_solve(data, driver, tol=1e-12):
    """Conjugate-gradient solve of the discrete optimality system.

    The optimal control satisfies (1 + L*L + alpha Lhat*Lhat) U = K X^0,
    with X^0 the zero-control state; the operator application is
    V -> V - K(L V), assembled from the forward and kernel sweeps.
    Conditional expectations must be exact, so the driver is a scenario
    tree.

    Raises
    ------
    RuntimeError if CG has not reached residual <= tol * ||rhs|| within
    10 * n_unknowns iterations.
    """
    if driver.kind != "tree":
        raise ValueError("direct solve requires exact conditional expectations (tree driver)")
    grid = data.grid
    n_unknowns = data.space.dim * driver.offset(grid.n_steps)
    if n_unknowns > 1_000_000:
        raise ValueError(f"optimality system too large ({n_unknowns} unknowns)")

    def apply_n(v):
        return add(v, k_htau(data, apply_L(data, driver, v)), -1.0)

    x0_state = solve_forward(data, driver, control=None)
    rhs = k_htau(data, x0_state)
    rhs_norm = float(np.sqrt(control_norm_sq(data, rhs)))
    u = zeros_process(driver, data.space.dim, grid.n_steps - 1)
    if rhs_norm == 0.0:
        return u

    r = p = rhs  # add() returns new processes, so sharing rhs is safe
    rs = control_inner(data, r, r)
    max_iters = 10 * n_unknowns
    for _ in range(max_iters):
        ap = apply_n(p)
        alpha_cg = rs / control_inner(data, p, ap)
        u = add(u, p, alpha_cg)
        r = add(r, ap, -alpha_cg)
        rs_new = control_inner(data, r, r)
        if np.sqrt(rs_new) <= tol * rhs_norm:
            return u
        p = add(r, p, rs_new / rs)
        rs = rs_new
    raise RuntimeError(
        f"conjugate gradients did not reach {tol:.1e} * ||rhs|| in {max_iters} iterations"
    )


def estimate_operator_norm(data, driver, n_iters=30, seed=0):
    """Power-iteration estimate of the cost Hessian norm ||1 + L*L + alpha Lhat*Lhat||.

    Converges from below, so a kappa taken from it needs a safety margin.
    """
    rng = np.random.default_rng(seed)
    vals = [
        rng.standard_normal((n_scenarios(driver, n), data.space.dim))
        for n in range(data.grid.n_steps)
    ]
    v = process(driver, vals)

    def apply_n(w):
        return add(w, k_htau(data, apply_L(data, driver, w)), -1.0)

    def normalized(w):
        scale = 1.0 / np.sqrt(control_norm_sq(data, w))
        return process(driver, [scale * x for x in w.values])

    v = normalized(v)
    rayleigh = 1.0
    for _ in range(n_iters):
        nv = apply_n(v)
        rayleigh = control_inner(data, v, nv)
        v = normalized(nv)
    return float(rayleigh)


def bsde_martingale(data, driver, state, y0):
    """Martingale integrand Zbar0 over 0..N-1 of the backward equation, from its Y0:

        Zbar0(t_n) = (1/tau) E[(Y0(t_{n+1}) - tau X(t_{n+1})) dW_{n+1} | F_n],

    using the conditioned Y0 slice at level n+1 and ``slice_condexp``.
    """
    N, tau = data.grid.n_steps, data.grid.tau
    zbar0 = zeros_process(driver, data.space.dim, N - 1)
    for n in range(N):
        mart = y0.at(n + 1) - tau * np.asarray(state.at(n + 1))
        dw = increments_at(driver, n + 1)[:, None]
        zbar0.at(n)[...] = slice_condexp(data, driver, mart * dw, n + 1, n, state) / tau
    return zbar0


def bsde_residual(data, driver, state, y0, zbar0):
    """Largest martingale-identity residual of a backward-equation solution.

    For each n the identity

        (I - tau Laplace_h) Y0(t_n) = E[Y0(t_{n+1}) | F_n]
                                      - tau E[X(t_{n+1}) | F_n] + tau Zbar0(t_n)

    must hold; the maximum L2 norm of its defect over all scenarios and
    times is returned (exactly zero up to roundoff for exact
    conditioning).  In eigen coordinates I - tau Laplace_h is the
    diagonal 1 + tau lambda_i.
    """
    grid = data.grid
    N, tau = grid.n_steps, grid.tau
    shift = 1.0 + tau * data.space.eigvals
    worst = 0.0
    for n in range(N):
        lhs = np.asarray(y0.at(n)) * shift
        e_y = slice_condexp(data, driver, np.asarray(y0.at(n + 1)), n + 1, n, state)
        e_x = slice_condexp(data, driver, np.asarray(state.at(n + 1)), n + 1, n, state)
        defect = lhs - e_y + tau * e_x - tau * np.asarray(zbar0.at(n))
        norms = np.sqrt(np.einsum("ij,ij->i", defect, defect))
        worst = max(worst, float(norms.max()))
    return worst


# -- per-slice conditioning and reductions ------------------------------------
# The library conditions a whole backward sweep at once (one batched solve of
# the regression normal equations on ensembles) and reduces stacked (K, P, d)
# ensemble processes with single einsums.  The per-slice code it replaced is
# kept here verbatim as the equivalence oracle.

_RIDGE = 1e-10


def regression_condexp(features, targets):
    """Ridge least-squares fit of targets on features.

    Solves (F^T F + ridge I) beta = F^T Y with the fixed ridge 1e-10 and
    returns (beta, F beta).
    """
    F = np.asarray(features, dtype=float)
    Y = np.asarray(targets, dtype=float)
    gram = F.T @ F + _RIDGE * np.eye(F.shape[1])
    beta = np.linalg.solve(gram, F.T @ Y)
    return beta, F @ beta


def slice_condexp(data, driver, values, level, n, state=None):
    """E[values | F_{t_n}] for per-scenario values living at time index ``level``.

    Subtree averages on a tree, one level at a time like the library's
    sibling-pair average (so the per-slice loops round as the library
    does); on an ensemble one ridge regression of this slice on
    [1, xhat_1, ..., xhat_m, W(t_n)], m = min(4, d).
    """
    if driver.kind == "tree":
        for k in range(level, n, -1):
            values = tree_condexp(values, k, k - 1)
        return values
    if state is None:
        raise ValueError("conditioning on an ensemble regresses on the state; pass state")
    m = min(4, data.space.dim)
    coords = state.at(n)[:, :m]
    features = np.column_stack([np.ones(n_scenarios(driver, n)), *coords.T, driver.brownian(n)])
    return regression_condexp(features, values)[1]


def backward_kernel(data, driver, state, product_offset):
    """Backward recursion of the gradient kernel and the backward equation, unconditioned.

    Verbatim copy of the generator the library streamed into its
    conditioning pass before the sweep conditioned as it goes.  Yields (n, H_n, level) for n = N-1 down to 0: H_n = E[G_n | F_level],
    level = min(n + product_offset, N), in eigen coordinates with one row
    per level-``level`` tree node or per ensemble path.  The running
    source -tau X_{n+1} and the terminal value -alpha X_N are read from
    ``state``, the process over 0..N that the sweep adjoins.
    ``product_offset`` selects where the noise multipliers start relative
    to the conditioning time: offset 2 gives the gradient kernel, offset 1
    the implicit-Euler backward equation.  For additive noise the
    multipliers collapse to 1.  Each step allocates one array, so a
    yielded H is never written again.
    """
    space, grid = data.space, data.grid
    N, tau = grid.n_steps, grid.tau
    linear = data.noise == "linear"
    scale = a0_scale(space, tau)
    if product_offset not in (1, 2):
        raise ValueError(f"product_offset must be 1 or 2, got {product_offset}")

    H = -data.alpha * np.asarray(state.at(N))
    level = N
    for n in range(N - 1, -1, -1):
        if n + product_offset < level:
            H = sibling_mean(driver, H)
            level -= 1
        vn1 = -tau * state.at(n + 1)
        if level > n + 1:
            vn1 = child_expand(driver, vn1)
        fresh = None  # the step's first operation allocates, the rest run in place
        if linear and product_offset == 2 and n <= N - 2:
            H = fresh = np.multiply(H, (1.0 + increments_at(driver, n + 2))[:, None], out=fresh)
        H = fresh = np.add(H, vn1, out=fresh)
        if linear and product_offset == 1:
            H = fresh = np.multiply(H, (1.0 + increments_at(driver, n + 1))[:, None], out=fresh)
        H = np.multiply(H, scale, out=fresh)
        yield n, H, level


def slice_k_htau(data, driver, state):
    """Gradient kernel slices n = 0..N-1, conditioned one slice at a time."""
    out = [None] * data.grid.n_steps
    for n, H, level in backward_kernel(data, driver, state, product_offset=2):
        out[n] = slice_condexp(data, driver, H, level, n, state)
    return out


def slice_implicit_euler_bsde(data, driver, state):
    """Backward-equation slices (Y0 over 0..N, Zbar0 over 0..N-1), one conditioning per slice."""
    N, tau = data.grid.n_steps, data.grid.tau
    y_vals = [None] * (N + 1)
    y_vals[N] = -data.alpha * np.asarray(state.at(N))
    for n, H, level in backward_kernel(data, driver, state, product_offset=1):
        y_vals[n] = slice_condexp(data, driver, H, level, n, state)
    z_vals = [None] * N
    for n in range(N):
        mart = y_vals[n + 1] - tau * np.asarray(state.at(n + 1))
        dw = increments_at(driver, n + 1)[:, None]
        z_vals[n] = slice_condexp(data, driver, mart * dw, n + 1, n, state) / tau
    return y_vals, z_vals


def copying_solve_forward(data, driver, control=None, out=None):
    """``solve_forward`` as the library ran it before tree levels became broadcast views.

    Verbatim but for the driver calls: each step repeats the parent slice
    onto its children (``child_expand``) and rebuilds the multiplier
    column from ``increments_at``.  The library's loop keeps every
    floating-point operation of this one, in order, so the two agree
    bit for bit.
    """
    space, grid = data.space, data.grid
    N, tau = grid.n_steps, grid.tau
    d = space.dim
    linear = data.noise == "linear"
    scale = a0_scale(space, tau)

    gains = None
    if control is not None and not isinstance(control, AdaptedProcess):
        gains = [np.asarray(a, dtype=float) for a in control]
        if [a.shape for a in gains] != [(N, d)] * 2:
            raise ValueError(f"feedback gains need shape {(N, d)}, got {[a.shape for a in gains]}")
        control = zeros_process(driver, d, N - 1)
    proc = zeros_process(driver, d, N) if out is None else out
    proc.check_fits(driver, d, N)
    proc.values[0][...] = data.x0
    for n in range(N):
        xn = proc.values[n]
        un = None if control is None else control.at(n)
        if gains is not None:
            np.multiply(gains[0][n], xn, out=un)
            un += gains[1][n]
            np.negative(un, out=un)
        par = child_expand(driver, xn)
        dw = increments_at(driver, n + 1)[:, None]
        out = proc.values[n + 1]
        if linear:
            np.multiply(par, 1.0 + dw, out=out)
        else:
            out[...] = par
        if un is not None:
            out += tau * child_expand(driver, un)
        out += data.sigma[n] * dw
        out *= scale
    return proc if gains is None else (proc, control)


def copying_sweep(data, driver, state, product_offset, out):
    """``adjoint._sweep`` as the library ran it before tree levels became broadcast views.

    Verbatim but for the driver calls, like :func:`copying_solve_forward`:
    V_{n+1} is repeated onto H's level and the multipliers are rebuilt per
    step.  Writes E[G_n | F_n] into ``out`` over 0..N-1.
    """
    N, tau = data.grid.n_steps, data.grid.tau
    linear = data.noise == "linear"
    scale = a0_scale(data.space, tau)
    out.check_fits(driver, data.space.dim, N - 1)
    tree = driver.kind == "tree"
    if tree:
        held = [None] * N
    else:
        feats = _regression_features(data, state)[:N]
        rhs = np.empty((N, feats.shape[2], data.space.dim))

    H, level = -data.alpha * np.asarray(state.at(N)), N
    for n in range(N - 1, -1, -1):
        if n + product_offset < level:
            H, level = up, level - 1
        # V_{n+1} is a fresh array, so H (which a tree may hold) is never written
        G = -tau * state.at(n + 1)
        if level > n + 1:
            G = child_expand(driver, G)
        if linear and product_offset == 2 and n <= N - 2:
            G += H * (1.0 + increments_at(driver, n + 2))[:, None]
        else:
            G += H
        if linear and product_offset == 1:
            G *= (1.0 + increments_at(driver, n + 1))[:, None]
        G *= scale
        H = G
        up = sibling_mean(driver, H)
        if tree:
            held[n] = up if level == n + 1 else sibling_mean(driver, up)
        else:
            np.matmul(feats[n].T, H, out=rhs[n])
    if tree:
        for n, value in enumerate(held):
            out.at(n)[...] = value
        return
    gram = np.matmul(feats.transpose(0, 2, 1), feats) + _RIDGE * np.eye(feats.shape[2])
    np.matmul(feats, np.linalg.solve(gram, rhs), out=out.values)


def einsum_slice_means(u, v):
    """Tree ``slice_means`` as row sums averaged per level, before one dot per level."""
    pairs = zip(u.values, v.values, strict=True)
    return np.array([np.einsum("ij,ij->i", a, b).mean() for a, b in pairs])


def _row_sq(values):
    """Per-scenario squared L2 norms of a slice of eigen coordinates."""
    values = np.asarray(values)
    return np.einsum("ij,ij->i", values, values)


def _slice_mean_sq(values):
    return float(_row_sq(values).mean())


def slice_control_inner(data, u, v):
    """tau sum_n E <u_n, v_n>, accumulated slice by slice."""
    total = 0.0
    for n in range(len(u.values)):
        total += float(np.einsum("ij,ij->i", u.at(n), v.at(n)).mean())
    return data.grid.tau * total


def slice_cost(data, state, control):
    """Discrete quadratic cost, accumulated slice by slice."""
    tau, alpha = data.grid.tau, data.alpha
    N = data.grid.n_steps
    state_sq = sum(_slice_mean_sq(state.at(n)) for n in range(1, N + 1))
    ctrl_sq = sum(_slice_mean_sq(control.at(n)) for n in range(N))
    terminal = _slice_mean_sq(state.at(N))
    return 0.5 * tau * (state_sq + ctrl_sq) + 0.5 * alpha * terminal


def slice_cost_with_stderr(data, state, control):
    """(cost, standard error) with the per-path samples summed slice by slice."""
    value = slice_cost(data, state, control)
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


def slice_temporal_errors(tau_ref, n_ref, lvl, u_ref, x_ref, u_lvl, x_lvl):
    """(err_ctrl, se_ctrl, err_state, se_state): the temporal study's per-slice error loops."""
    n_paths = x_ref.driver.n_paths
    stride = n_ref // lvl
    ctrl_sq = np.zeros(n_paths)
    for k in range(n_ref):
        diff = np.asarray(u_ref.at(k)) - np.asarray(u_lvl.at(k // stride))
        ctrl_sq += tau_ref * np.einsum("ij,ij->i", diff, diff)
    err_ctrl = float(np.sqrt(ctrl_sq.mean()))
    se_ctrl = float(ctrl_sq.std(ddof=1) / np.sqrt(n_paths) / max(2.0 * err_ctrl, 1e-300))

    worst, worst_rows = -1.0, None
    for j in range(lvl + 1):
        diff = np.asarray(x_ref.at(j * stride)) - np.asarray(x_lvl.at(j))
        rows_j = np.einsum("ij,ij->i", diff, diff)
        if rows_j.mean() > worst:
            worst, worst_rows = float(rows_j.mean()), rows_j
    err_state = float(np.sqrt(worst))
    se_state = float(worst_rows.std(ddof=1) / np.sqrt(n_paths) / max(2.0 * err_state, 1e-300))
    return err_ctrl, se_ctrl, err_state, se_state


def slice_gradient_descent(data, driver, max_iters, kappa=None, tol_grad=None, reference=None):
    """The descent loop as it ran before the whole-array update: (control, GdTrace).

    Each slice of the kernel, conditioned one slice at a time, gives
    g_n = u_n - Q_n, adds tau E||g_n||^2 to the squared gradient norm in
    sweep order n = N-1..0, and updates u_n -= g_n / kappa.  The
    divergence warning of the library loop is left out.  The forward loop
    is :func:`copying_solve_forward`, so on a tree the control (and a
    ``reference``) are in the interleaved order of the helpers here.
    """
    grid = data.grid
    kappa = kappa if kappa is not None else kappa_bound(grid.horizon, data.alpha)
    u = zeros_process(driver, data.space.dim, grid.n_steps - 1)
    trace = GdTrace(kappa=kappa)
    tau, step = grid.tau, 1.0 / kappa
    for _ in range(max_iters):
        state = copying_solve_forward(data, driver, u)
        trace.cost.append(cost(data, state, u))
        if reference is not None:
            trace.err_to_ref.append(control_norm_sq(data, u - reference))
        q_slices = slice_k_htau(data, driver, state)
        grad_sq = 0.0
        for n in range(grid.n_steps - 1, -1, -1):
            g = u.at(n) - q_slices[n]
            grad_sq += tau * float(_row_sq(g).mean())
            u.at(n)[...] -= step * g
        grad_norm = float(np.sqrt(grad_sq))
        trace.grad_norm.append(grad_norm)
        if tol_grad is not None and grad_norm <= tol_grad:
            trace.stop = "tol"
            break
    return u, trace


# -- nodal norms and evaluation -----------------------------------------------


def mass(space):
    """Tridiagonal P1 mass matrix M, tridiag(1, 4, 1) h / 6 (dense)."""
    d, h = space.dim, space.h
    return (4.0 * h / 6.0) * np.eye(d) + (h / 6.0) * (np.eye(d, k=1) + np.eye(d, k=-1))


def stiffness(space):
    """Tridiagonal P1 stiffness matrix A, tridiag(-1, 2, -1) / h (dense)."""
    d = space.dim
    return (2.0 * np.eye(d) - np.eye(d, k=1) - np.eye(d, k=-1)) / space.h


def nodes(space):
    """Interior nodes h, 2h, ..., (n_elems - 1) h, shape (d,)."""
    return space.h * np.arange(1, space.n_elems)


def eigvecs(space):
    """Dense V, shape (d, d), from the closed form in the mesh module docstring: its columns
    are the M-orthonormal sine eigenvectors, which the library applies as a sine transform."""
    n, k = space.n_elems, np.arange(1, space.n_elems)
    s = np.sin(np.pi * k / (2 * n)) ** 2
    # sin(j theta_k) with j k reduced mod 2 n_elems, so no argument exceeds 2 pi
    phase = np.outer(k, k) % (2 * n)
    return np.sin(np.pi * phase / n) / np.sqrt((space.h / 6) * (6 - 4 * s) * (n / 2))


def to_eigen(space, v):
    """Eigen coordinates c = V^T M v of nodal values (single or batch)."""
    return np.asarray(v) @ (mass(space) @ eigvecs(space))


def prolongation_matrix(coarse, fine):
    """Nodal interpolation matrix from a coarse space into a nested fine one.

    Returns P, shape (fine.dim, coarse.dim), with (P v)_i = v_h-coarse
    evaluated at the i-th fine node, exact for nested uniform meshes.
    """
    if fine.n_elems % coarse.n_elems != 0:
        raise ValueError(
            f"meshes are not nested: {coarse.n_elems} does not divide {fine.n_elems}"
        )
    # hat_j(x) = max(0, 1 - |x - j*hc| / hc) for coarse node j
    return np.maximum(0.0, 1.0 - np.abs(nodes(fine)[:, None] - nodes(coarse)[None, :]) / coarse.h)


def cross_gramian(coarse, fine):
    """C = V_f^T M_f P V_c, shape (fine.dim, coarse.dim): the nodal prolongation P in eigen coordinates."""
    return to_eigen(fine, (prolongation_matrix(coarse, fine) @ eigvecs(coarse)).T).T


def discrete_laplacian_apply(space, v):
    """Apply Laplace_h = -M^{-1} A to nodal coefficients (single or batch)."""
    v = np.asarray(v, dtype=float)
    return -np.linalg.solve(mass(space), (v @ stiffness(space)).T).T


def l2_norm(space, v):
    """Discrete L2 norm sqrt(v^T M v) of one coefficient vector."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(v @ mass(space) @ v))


def l2_norm_sq_batch(space, v):
    """Squared L2 norms of a batch of coefficient vectors, shape (n,)."""
    v = np.atleast_2d(np.asarray(v, dtype=float))
    return ((v @ mass(space)) * v).sum(axis=1)


def l2_inner(space, u, v):
    """M-inner product of two coefficient vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u @ mass(space) @ v)


def h1_seminorm(space, v):
    """Discrete H1 seminorm sqrt(v^T A v)."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(v @ stiffness(space) @ v))


def l2_project(space, f):
    """L2-orthogonal projection of a function onto V_h.

    The load vector b_j = (f, phi_j) is assembled with 5-point Gauss
    quadrature per element and the mass system M c = b is solved as
    c = V V^T b, since M^{-1} = V V^T for the M-orthonormal eigenvectors.

    Parameters
    ----------
    space : FemSpace
    f : callable
        Vectorized function of x on (0, 1).

    Returns
    -------
    ndarray, shape (d,)
        Interior nodal coefficients of the projection.
    """
    pts, wts = _quad_points(space)
    fv = f(pts) * wts
    # local hats: phi_left = 1 - s, phi_right = s with s in (0,1) on each element
    s = _GAUSS_X[None, :]
    contrib_left = (fv * (1.0 - s)).sum(axis=1)   # node index = element index
    contrib_right = (fv * s).sum(axis=1)          # node index = element index + 1
    b = np.zeros(space.dim)
    # element k touches global nodes k (left) and k+1 (right); nodes 0 and
    # n_elems are boundary and dropped
    b += contrib_left[1:]
    b += contrib_right[:-1]
    V = eigvecs(space)
    return (b @ V) @ V.T


def ritz_load(space, f_prime):
    """The load b_j = (f', phi_j') that ``ritz_project`` assembles, shape (d,)."""
    pts, wts = _quad_points(space)
    per_elem = (f_prime(pts) * wts).sum(axis=1)
    # phi_j' = +1/h on element j-1 and -1/h on element j
    return (per_elem[:-1] - per_elem[1:]) / space.h


def nodal_ritz_project(space, f_prime):
    """Ritz projection as nodal values: the dense solve A v = b with the ``ritz_load`` b."""
    return np.linalg.solve(stiffness(space), ritz_load(space, f_prime))


def eval_fem(space, v, x):
    """Evaluate the P1 function with interior coefficients v at points x."""
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    full = np.concatenate(([0.0], v, [0.0]))
    grid = np.linspace(0.0, 1.0, space.n_elems + 1)
    return np.interp(x, grid, full)


def _a0_powers(space, tau, n_max):
    A0 = dense_a0(space, tau)
    powers = [np.eye(space.dim)]
    for _ in range(n_max):
        powers.append(A0 @ powers[-1])
    return powers


def _multiplier(driver, k_from, k_to, linear=True):
    """prod_{k = k_from..k_to} (1 + dW_k) per leaf (empty product = 1)."""
    n_leaves = n_scenarios(driver, driver.grid.n_steps)
    out = np.ones(n_leaves)
    if not linear:
        return out
    for k in range(k_from, k_to + 1):
        out = out * (1.0 + pathwise_increment(driver, k))
    return out


def literal_gamma(space, driver, x0, linear=True):
    """Pathwise Gamma x0 at every node time, list of (n_leaves, d) arrays."""
    grid = driver.grid
    N, tau = grid.n_steps, grid.tau
    P = _a0_powers(space, tau, N)
    out = []
    for n in range(N + 1):
        m = _multiplier(driver, 1, n, linear)
        out.append(m[:, None] * (P[n] @ x0))
    return out


def literal_l(space, driver, control, linear=True):
    """Pathwise L U at every node time from the defining sum."""
    grid = driver.grid
    N, tau = grid.n_steps, grid.tau
    P = _a0_powers(space, tau, N)
    u_path = [pathwise(driver, control.at(j), j) for j in range(N)]
    out = []
    for n in range(N + 1):
        acc = np.zeros_like(u_path[0])
        for j in range(n):
            m = _multiplier(driver, j + 2, n, linear)
            acc += m[:, None] * (u_path[j] @ P[n - j].T)
        out.append(tau * acc)
    return out


def literal_f(space, driver, sigma, linear=True):
    """Pathwise inhomogeneous part at every node time."""
    grid = driver.grid
    N, tau = grid.n_steps, grid.tau
    P = _a0_powers(space, tau, N)
    n_leaves = n_scenarios(driver, N)
    out = []
    for n in range(N + 1):
        acc = np.zeros((n_leaves, space.dim))
        for j in range(n):
            m = _multiplier(driver, j + 2, n, linear)
            dw = pathwise_increment(driver, j + 1)
            acc += (m * dw)[:, None] * (P[n - j] @ sigma[j])
        out.append(acc)
    return out


def literal_l_adjoint(space, driver, xi, linear=True):
    """(L* xi)(t_j) as exact tree conditional expectations, j = 0..N-1."""
    grid = driver.grid
    N, tau = grid.n_steps, grid.tau
    P = _a0_powers(space, tau, N)
    out = []
    for j in range(N):
        acc = np.zeros((n_scenarios(driver, N), space.dim))
        for n in range(j + 1, N + 1):
            m = _multiplier(driver, j + 2, n, linear)
            acc += m[:, None] * (pathwise(driver, xi.at(n), n) @ P[n - j].T)
        out.append(tau * tree_condexp(acc, N, j))
    return out


def literal_lhat_adjoint(space, driver, eta, linear=True):
    """(Lhat* eta)(t_j) as exact tree conditional expectations, j = 0..N-1."""
    grid = driver.grid
    N, tau = grid.n_steps, grid.tau
    P = _a0_powers(space, tau, N)
    eta_path = pathwise(driver, np.asarray(eta), N)
    out = []
    for j in range(N):
        m = _multiplier(driver, j + 2, N, linear)
        acc = m[:, None] * (eta_path @ P[N - j].T)
        out.append(tree_condexp(acc, N, j))
    return out


def literal_k_htau(space, driver, alpha, state, linear=True):
    """Gradient kernel -L*(X) - alpha Lhat*(X_N) from the literal adjoints."""
    xi = state  # slices 1..N are read by literal_l_adjoint
    lstar = literal_l_adjoint(space, driver, xi, linear)
    lhat = literal_lhat_adjoint(space, driver, state.at(driver.grid.n_steps), linear)
    return [-(a + alpha * b) for a, b in zip(lstar, lhat)]


def pairing_state(driver, proc_a_path, proc_b_path, tau):
    """tau-weighted state pairing sum_{n=1..N} E <a_n, b_n> from pathwise slices.

    The slices are eigen coordinates, where the L2 pairing is euclidean.
    """
    total = 0.0
    for n in range(1, len(proc_a_path)):
        inner = (proc_a_path[n] * proc_b_path[n]).sum(axis=1)
        total += tau * inner.mean()
    return total


def regression_features(space, driver, state, n, n_modes=4):
    """Regression basis [1, xhat_1, ..., xhat_m, W(t_n)] on an ensemble slice.

    Verbatim copy of the basis of the former ``RegressionCondexp``
    estimator (m = min(n_modes, d) leading eigenbasis coordinates of the
    state), kept as the equivalence oracle for the library's regression.
    ``state`` holds nodal slices.
    """
    cols = [np.ones(n_scenarios(driver, n))]
    m = min(n_modes, space.dim)
    coords = to_eigen(space, state.at(n))[:, :m]
    cols.extend(coords.T)
    cols.append(driver.brownian(n))
    return np.column_stack(cols)


def nodal_regression_condexp(space, driver, state, targets, n, ridge=1e-10):
    """Ensemble E[targets | F_n]: ridge normal equations on regression_features."""
    F = regression_features(space, driver, state, n)
    Y = np.asarray(targets, dtype=float)
    gram = F.T @ F + ridge * np.eye(F.shape[1])
    return F @ np.linalg.solve(gram, F.T @ Y)


# -- the nodal sweeps ---------------------------------------------------------


def _control_slice(control, n, t, x_slice):
    if control is None:
        return None
    if isinstance(control, AdaptedProcess):
        return control.at(n)
    return control(t, x_slice)


def nodal_forward(data, driver, x0, control, sigma, return_control=False):
    """Forward recursion on nodal coefficients; x0/control/sigma may be None.

    ``control`` is a process of nodal slices or a nodal callable
    control(t_n, x_slice), sampled at the left node of each step.
    """
    space, grid = data.space, data.grid
    N, tau = grid.n_steps, grid.tau
    d = space.dim
    linear = data.noise == "linear"
    A0 = dense_a0(space, tau)

    first = np.broadcast_to(np.zeros(d) if x0 is None else x0, (n_scenarios(driver, 0), d))
    values = [np.array(first, dtype=float)]
    realized = [] if return_control else None
    for n in range(N):
        xn = values[n]
        un = _control_slice(control, n, grid.nodes[n], xn)
        if realized is not None:
            realized.append(
                np.zeros((n_scenarios(driver, n), d)) if un is None
                else np.array(np.broadcast_to(un, xn.shape), dtype=float)
            )
        par = child_expand(driver, xn)
        dw = increments_at(driver, n + 1)[:, None]
        if linear:
            rhs = par * (1.0 + dw)
        else:
            rhs = par.copy()
        if un is not None:
            rhs += tau * child_expand(driver, np.broadcast_to(un, xn.shape))
        if sigma is not None:
            rhs += sigma[n] * dw
        values.append(rhs @ A0.T)
    proc = process(driver, values)
    if return_control:
        return proc, process(driver, realized)
    return proc


def nodal_solve_forward(data, driver, control=None):
    """Nodal state recursion from the problem's initial datum."""
    space = data.space
    return nodal_forward(
        data, driver, space.from_eigen(data.x0), control, space.from_eigen(data.sigma)
    )


def nodal_backward_kernel(data, driver, v_at, eta, product_offset):
    """Pathwise backward recursion on nodal coefficients (see ``backward_kernel``)."""
    space, grid = data.space, data.grid
    N, tau = grid.n_steps, grid.tau
    d = space.dim
    linear = data.noise == "linear"
    A0 = dense_a0(space, tau)
    if product_offset not in (1, 2):
        raise ValueError(f"product_offset must be 1 or 2, got {product_offset}")

    if eta is None:
        G = np.zeros((n_scenarios(driver, N), d))
    else:
        G = np.array(pathwise(driver, np.asarray(eta, dtype=float), N))
        if G.ndim == 1:
            G = np.broadcast_to(G, (n_scenarios(driver, N), d)).copy()
    for n in range(N - 1, -1, -1):
        vn1 = v_at(n + 1) if v_at is not None else None
        if product_offset == 2:
            if linear and n <= N - 2:
                G = G * (1.0 + pathwise_increment(driver, n + 2))[:, None]
            if vn1 is not None:
                G = G + pathwise(driver, vn1, n + 1)
        else:
            if vn1 is not None:
                G = G + pathwise(driver, vn1, n + 1)
            if linear:
                G = G * (1.0 + pathwise_increment(driver, n + 1))[:, None]
        G = G @ A0.T
        yield n, G


def nodal_condexp(data, driver, values, level, n, state=None):
    """E[values | F_n]: subtree means on trees, regression on a nodal ensemble state."""
    if driver.kind == "tree":
        return tree_condexp(values, level, n)
    return nodal_regression_condexp(data.space, driver, state, values, n)


def nodal_k_htau(data, driver, state):
    """Gradient kernel slices n = 0..N-1 of a nodal state process."""
    tau, alpha, N = data.grid.tau, data.alpha, data.grid.n_steps
    v_at = lambda n: -tau * state.at(n)
    eta = -alpha * np.asarray(state.at(N))
    out = [None] * N
    for n, G in nodal_backward_kernel(data, driver, v_at, eta, product_offset=2):
        out[n] = nodal_condexp(data, driver, G, N, n, state)
    return out


def nodal_l_adjoint(data, driver, xi):
    """(L* xi)(t_n), n = 0..N-1, of a nodal tree process from the leaf-wise sweep."""
    tau, N = data.grid.tau, data.grid.n_steps
    out = [None] * N
    for n, G in nodal_backward_kernel(data, driver, xi.at, None, product_offset=2):
        out[n] = tau * tree_condexp(G, N, n)
    return out


def nodal_lhat_adjoint(data, driver, eta):
    """(Lhat* eta)(t_n), n = 0..N-1, of a nodal terminal value from the leaf-wise sweep."""
    N = data.grid.n_steps
    out = [None] * N
    for n, G in nodal_backward_kernel(data, driver, None, eta, product_offset=2):
        out[n] = tree_condexp(G, N, n)
    return out


def nodal_implicit_euler_bsde(data, driver, state):
    """Backward-equation slices (Y0 over 0..N, Zbar0 over 0..N-1) of a nodal state."""
    N, tau = data.grid.n_steps, data.grid.tau
    v_at = lambda n: -tau * state.at(n)
    terminal = -data.alpha * np.asarray(state.at(N))
    y_vals = [None] * (N + 1)
    y_vals[N] = np.array(terminal)
    for n, G in nodal_backward_kernel(data, driver, v_at, terminal, product_offset=1):
        y_vals[n] = nodal_condexp(data, driver, G, N, n, state)
    z_vals = [None] * N
    for n in range(N):
        mart = y_vals[n + 1] - tau * np.asarray(state.at(n + 1))
        dw = increments_at(driver, n + 1)[:, None]
        z_vals[n] = nodal_condexp(data, driver, mart * dw, n + 1, n, state) / tau
    return y_vals, z_vals


def nodal_bsde_residual(data, driver, state, y_vals, z_vals):
    """Largest M-norm defect of (I - tau Laplace_h) Y0(t_n) = E[...] on nodal slices."""
    space, N, tau = data.space, data.grid.n_steps, data.grid.tau
    worst = 0.0
    for n in range(N):
        lhs = y_vals[n] - tau * discrete_laplacian_apply(space, y_vals[n])
        e_y = nodal_condexp(data, driver, y_vals[n + 1], n + 1, n, state)
        e_x = nodal_condexp(data, driver, np.asarray(state.at(n + 1)), n + 1, n, state)
        defect = lhs - e_y + tau * e_x - tau * z_vals[n]
        worst = max(worst, float(np.sqrt(l2_norm_sq_batch(space, defect)).max()))
    return worst


# -- Riccati and closed-loop moments ------------------------------------------


def all_pairs(d):
    """Row and column indices of every entry (i, j) of a d x d matrix, row-major."""
    return np.repeat(np.arange(d), d), np.tile(np.arange(d), d)


@dataclass
class MomentState:
    """First and second moments of the closed-loop state in the eigenbasis."""

    m: np.ndarray
    S: np.ndarray


def riccati_mode_derivative(lams, alpha, horizon, t, eps=1.0):
    """Exact time derivative p_i'(t) of the modes of p' = 2 lam p - eps p - 1 + p^2, shape (d, n_t).

    p(t) = q(T - t) with q'(s) = -D^2 c0 E / (1 - c0 E)^2 and E = e^{-D s},
    so p'(t) = D^2 c0 E / (1 - c0 E)^2, with the roots of lam + (1 - eps)/2.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float)) + 0.5 * (1.0 - eps)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    r_plus, r_minus, D = _stationary_roots(lams)
    c0 = (alpha - r_plus) / (alpha - r_minus)
    cE = c0[:, None] * np.exp(-D[:, None] * (horizon - t)[None, :])
    return (D**2)[:, None] * cE / (1.0 - cE) ** 2


def fine_grid(riccati):
    """The K_fine + 1 nodes of the dense grid, as ``solve_riccati`` samples them."""
    return np.linspace(0.0, riccati.data.grid.horizon, 2 * riccati.k_fine + 1)[::2]


def p_at(riccati, t):
    """Exact p_i(t) of the data's noise, shape (d,) for scalar t."""
    data = riccati.data
    lams = data.space.eigvals + 0.5 * (1.0 - data.eps)
    return riccati_mode_values(lams, data.alpha, data.grid.horizon, [t])[0]


def phi_at(riccati, t):
    """phi_i(t) linearly interpolated on the fine node grid, shape (d,)."""
    grid = fine_grid(riccati)
    k = min(int(np.searchsorted(grid, t, side="right")) - 1, len(grid) - 2)
    k = max(k, 0)
    w = (t - grid[k]) / (grid[k + 1] - grid[k])
    phi = riccati.phi_half[::2].T
    return (1.0 - w) * phi[:, k] + w * phi[:, k + 1]


def feedback_control(riccati, times):
    """Gains (p(t_n), phi(t_n)) of the feedback law u = -(p(t) x + phi(t)).

    Returns two arrays of shape (len(times), d), in eigen coordinates: at
    ``times = grid.nodes[:-1]`` the gain-pair control that
    :func:`slqheat.forward.solve_forward` takes on that grid.  p is
    evaluated in closed form and phi by linear interpolation.
    """
    horizon = riccati.data.grid.horizon
    times = np.asarray(times, dtype=float)
    if times.min() < -1e-12 or times.max() > horizon + 1e-12:
        raise ValueError(f"times {times} reach outside [0, {horizon}]")
    return (
        np.array([p_at(riccati, t) for t in times]),
        np.array([phi_at(riccati, t) for t in times]),
    )


def closed_loop_moments(riccati):
    """Moment trajectory of the feedback-controlled state at the fine nodes.

    Returns a list of MomentState (length K_fine + 1) aligned with
    ``fine_grid(riccati)``, started from ``riccati.data.x0``, with S the
    full d x d second moment: the entry-indexed sweep
    :func:`entry_moments` run on all pairs (i, j).
    """
    d = riccati.data.space.dim
    m, S = entry_moments([riccati], *all_pairs(d))
    return [MomentState(m=m_k, S=S_k.reshape(d, d)) for m_k, S_k in zip(m[::2], S[::2])]


def panel_hs_sweep(a_half, g_half, y0, dt):
    """Hermite-Simpson sweep of componentwise y' = a(t) y + g(t), one panel at a time.

    The library's ``_hs_sweep`` as it stood before its panel coefficients
    became whole-array operations: the collocation stages are eliminated
    per panel,

        f0 = a0 y0 + g0
        ym = c1 + c2 y1,  c1 = y0/2 + (dt/8)(f0 - g1),  c2 = 1/2 - (dt/8) a1
        y1 = [y0 + (dt/6)(f0 + 4(am c1 + gm) + g1)] / [1 - (dt/6)(4 am c2 + a1)]

    It runs in the dtype of its inputs, so ``np.longdouble`` inputs give an
    extended-precision sweep.
    """
    dtype = np.result_type(a_half, g_half, y0)
    y = np.empty((len(a_half),) + np.shape(y0), dtype=dtype)
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


def entry_moments(rics, rows, cols):
    """Closed-loop mean and second-moment entries of coupled solutions on the half grid.

    The library's entry-indexed moment sweep as it stood before it swept
    one solution's diagonal only.  The solutions in ``rics`` ride one
    scalar Wiener process, so their stacked eigen coordinates (those of
    rics[0] first) solve one linear SDE with diagonal drift and noise
    (eps x + sig) dW, eps that of rics[0].  Its mean
    solves m' = -(lam + p) m - phi (componentwise); each second-moment
    entry solves its own scalar ODE

        S_ij' = (a_i + a_j + eps) S_ij + b_ij,
        b_ij = -phi_i m_j - phi_j m_i + eps (m_i sig_j + m_j sig_i) + sig_i sig_j,

    with a_i = -(lam_i + p_i), from S_ij(0) = m0_i m0_j.  Only the entries
    (rows[e], cols[e]) of the stack are swept.

    Returns
    -------
    (m, S) of shapes (2K+1, n) and (2K+1, len(rows)).
    """
    parts = [(r.p_half, r.phi_half, r.sigma_eig_half, r.data.space.eigvals, r.data.x0)
             for r in rics]
    p, phi, sig, lams, m0 = (np.concatenate(part, axis=-1) for part in zip(*parts))
    dt, eps = rics[0].dt, rics[0].data.eps
    a = -(lams + p)
    m = panel_hs_sweep(a, -phi, m0, dt)
    source = -phi[:, rows] * m[:, cols]
    source -= phi[:, cols] * m[:, rows]
    source += eps * m[:, rows] * sig[:, cols]
    source += eps * m[:, cols] * sig[:, rows]
    source += sig[:, rows] * sig[:, cols]
    return m, panel_hs_sweep(a[:, rows] + a[:, cols] + eps, source, m0[rows] * m0[cols], dt)


# The full-matrix moment sweep, as the library had it before it swept only
# requested entries: the equivalence oracle of riccati._closed_loop_moments.


def mode_major(rics):
    """The Riccati solutions ``rics`` stacked into one record of the former layout.

    Fields ``k_fine``, ``dt``, ``eps`` (that of rics[0]), ``lams`` (the stacked eigenvalues) and the
    half-grid arrays ``p_half``, ``phi_half`` and ``sigma_eig_half``
    mode-major, shape (n, 2K+1): one row per stacked mode, as the library
    stored them before its record became time-major.  The full-matrix
    oracles below read this form.
    """
    return SimpleNamespace(
        k_fine=rics[0].k_fine,
        dt=rics[0].dt,
        eps=rics[0].data.eps,
        lams=np.concatenate([ric.data.space.eigvals for ric in rics]),
        p_half=np.vstack([ric.p_half.T for ric in rics]),
        phi_half=np.vstack([ric.phi_half.T for ric in rics]),
        sigma_eig_half=np.vstack([ric.sigma_eig_half.T for ric in rics]),
    )


def full_closed_loop_stream(riccati, m0, S0):
    """Yield (half_index, m, S) along the closed-loop moment sweep of a :func:`mode_major` record.

    The mean solves m' = -(lam + p) m - phi (componentwise); the second
    moment solves, componentwise in the eigenbasis,

        S_ij' = (a_i + a_j + eps) S_ij + b_ij,
        b = -phi m^T - m phi^T + eps (m sig^T + sig m^T) + sig sig^T,

    with a_i = -(lam_i + p_i).  The +eps and the sig terms come from the
    noise second moment E (eps X + sig)(eps X + sig)^T.  S values
    at midpoints are collocation values, accurate to the scheme's order,
    so Simpson accumulation against this stream is 4th order.
    """
    dt, eps = riccati.dt, riccati.eps
    a = -(riccati.lams[:, None] + riccati.p_half)  # (d, 2K+1)
    m_half = panel_hs_sweep(a.T, -riccati.phi_half.T, m0, dt)  # (2K+1, d)

    def b_at(idx):
        m = m_half[idx]
        phi = riccati.phi_half[:, idx]
        sig = riccati.sigma_eig_half[:, idx]
        pm = np.outer(phi, m)
        ms = eps * np.outer(m, sig)
        return -pm - pm.T + ms + ms.T + np.outer(sig, sig)

    S = np.array(S0, dtype=float)
    yield 0, m_half[0], S
    for k in range(riccati.k_fine):
        i0, i1, i2 = 2 * k, 2 * k + 1, 2 * k + 2
        A0 = a[:, i0][:, None] + a[:, i0][None, :] + eps
        Am = a[:, i1][:, None] + a[:, i1][None, :] + eps
        A1 = a[:, i2][:, None] + a[:, i2][None, :] + eps
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


def full_joint_errors(ric_r, ric_c, dtype=float):
    """Squared control and state-gradient errors between two meshes, by dense blocks.

    Both closed-loop systems ride the same scalar Wiener process.  In the
    coordinates (delta, x_c) with delta = x_r - C x_c and the dense cross
    Gramian C = V_r^T M_r P V_c of the nodal prolongation P, the pair
    solves a linear SDE whose second block is the coarse system and whose
    first reads

        d delta = (A_r delta + L x_c - dphi) dt + (eps delta + dsig) dW,
        L = A_r C - C A_c,   dphi = phi_r - C phi_c,   dsig = sig_r - C sig_c,

    with A = -diag(lam + p).  The coarse mean and full second moment S_cc,
    then the mean of delta and the full cross moment S_dc = E delta x_c^T,
    then the diagonal of S_dd = E delta delta^T (all that the errors read)
    are swept by :func:`panel_hs_sweep`, each fed by the half-grid values
    of the ones before.  The errors subtract no moments of order one:

        E ||grad(X_r - P X_c)||^2 = sum_i lam_r,i S_dd,ii,
        E ||U_r - P U_c||^2 = E ||P_r delta + Q x_c + dphi||^2,  Q = P_r C - C P_c.

    Every input is cast to ``dtype`` first, so ``np.longdouble`` gives an
    extended-precision reference.

    Returns (E int ||U_r - U_c||^2 dt, E int ||grad(X_r - X_c)||^2 dt).
    """
    space_r, space_c = ric_r.data.space, ric_c.data.space
    cast = lambda v: np.asarray(v, dtype=dtype)
    C = cast(cross_gramian(space_c, space_r))  # (D, d)
    lam_r, p_r, phi_r, sig_r, x0_r = (cast(v) for v in (
        space_r.eigvals, ric_r.p_half, ric_r.phi_half, ric_r.sigma_eig_half, ric_r.data.x0))
    lam_c, p_c, phi_c, sig_c, x0_c = (cast(v) for v in (
        space_c.eigvals, ric_c.p_half, ric_c.phi_half, ric_c.sigma_eig_half, ric_c.data.x0))
    dt, eps = cast(ric_r.dt), cast(ric_r.data.eps)
    a_r, a_c = -(lam_r + p_r), -(lam_c + p_c)  # (2K+1, D), (2K+1, d)
    outer = lambda u, v: u[:, :, None] * v[:, None, :]
    apply = lambda M, v: np.einsum("tij,tj->ti", M, v)

    m_c = panel_hs_sweep(a_c, -phi_c, x0_c, dt)
    drive_c = eps * sig_c - phi_c
    source = outer(drive_c, m_c) + outer(m_c, drive_c) + outer(sig_c, sig_c)
    S_cc = panel_hs_sweep(a_c[:, :, None] + a_c[:, None, :] + eps, source, np.outer(x0_c, x0_c), dt)

    L = a_r[:, :, None] * C - C * a_c[:, None, :]
    d_phi, d_sig = phi_r - phi_c @ C.T, sig_r - sig_c @ C.T
    d0 = x0_r - C @ x0_c
    m_d = panel_hs_sweep(a_r, apply(L, m_c) - d_phi, d0, dt)
    drive_d = eps * d_sig - d_phi
    source = L @ S_cc + outer(m_d, drive_c) + outer(drive_d, m_c) + outer(d_sig, sig_c)
    S_dc = panel_hs_sweep(a_r[:, :, None] + a_c[:, None, :] + eps, source, np.outer(d0, x0_c), dt)
    source = 2 * (L * S_dc).sum(axis=2) + 2 * drive_d * m_d + d_sig**2
    S_dd = panel_hs_sweep(2 * a_r + eps, source, d0**2, dt)

    Q = p_r[:, :, None] * C - C * p_c[:, None, :]
    ctrl = (p_r**2 * S_dd).sum(axis=1) + 2 * (p_r[:, :, None] * Q * S_dc).sum(axis=(1, 2))
    ctrl += np.einsum("tij,tjk,tik->t", Q, S_cc, Q)
    ctrl += 2 * (d_phi * (p_r * m_d + apply(Q, m_c))).sum(axis=1) + (d_phi**2).sum(axis=1)
    grad = (lam_r * S_dd).sum(axis=1)
    return tuple(float(_simpson_panel_values(v, dt).sum()) for v in (ctrl, grad))


def pair_moments(ric_r, ric_c, partner, c):
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


def pair_joint_errors(ric_r, ric_c):
    """Squared control and state-gradient errors between two meshes.

    The nodal prolongation P pairs each fine mode with one coarse mode
    through the alias coefficient c (:func:`slqheat.mesh.alias_coefficients`),
    so both errors are per-mode sums over the moments of delta = x_r - c x_c
    (:func:`pair_moments`), with no moments of order one
    subtracted, integrated by composite Simpson:

        E ||grad(X_r - P X_c)||^2 = sum_i lam_r S_dd,
        E ||U_r - P U_c||^2 = sum_i E (p_r delta + (p_r - p_c) c x_c + phi_r - c phi_c)^2.

    Returns (E int ||U_r - U_c||^2 dt, E int ||grad(X_r - X_c)||^2 dt).
    """
    partner, c = alias_coefficients(ric_c.data.space, ric_r.data.space)
    m_d, S_dd, S_dc, m_c, S_cc = pair_moments(ric_r, ric_c, partner, c)
    p = ric_r.p_half
    q = c * (p - ric_c.p_half[:, partner])
    d_phi = ric_r.phi_half - c * ric_c.phi_half[:, partner]
    ctrl = p**2 * S_dd + 2.0 * p * q * S_dc + q**2 * S_cc
    ctrl += 2.0 * d_phi * (p * m_d + q * m_c) + d_phi**2
    grad = ric_r.data.space.eigvals * S_dd
    ctrl_sq = float(_simpson_panel_values(ctrl.sum(axis=1), ric_r.dt).sum())
    grad_sq = float(_simpson_panel_values(grad.sum(axis=1), ric_r.dt).sum())
    return ctrl_sq, grad_sq


def solve_riccati_dense(space, horizon, alpha, k_fine=1024, eps=1.0):
    """Independent dense-matrix Riccati oracle (test scale, d <= 64).

    Integrates the full matrix ODE P' + P Laplace_h + Laplace_h P + eps P
    + I - P^2 = 0 in the eigenbasis coordinates (where the discrete
    Laplacian is -diag(lambda)) backward in time by classical RK4, making
    no use of the diagonal structure of the solution.  The returned
    trajectory lets tests confirm that the flow really preserves
    diagonality and matches the per-mode closed form.  An array ``eps``
    of shape (n,) integrates n problems side by side in one run.

    Explicit RK4 needs lambda_max * (T / k_fine) inside its stability
    region, so callers must resolve the stiffest mode (a warning is
    raised otherwise); this is affordable at oracle scale only.

    Returns
    -------
    (t_nodes, P) with P of shape (k_fine + 1, d, d), or (k_fine + 1, n, d, d)
    for n values of eps; P[k] acts on eigenbasis coordinates at time t_nodes[k].
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
    eye = np.eye(d)
    # Q L + L Q - eps Q for the diagonal L = diag(lambda) is Q scaled entrywise
    shift = np.asarray(eps, dtype=float)[..., None, None] - lam[:, None] - lam

    def rhs(Q):
        # reversed time: Q(s) = P(T - s)
        return shift * Q + eye - Q @ Q

    Q = np.broadcast_to(alpha * eye, shift.shape)
    traj = np.empty((k_fine + 1,) + Q.shape)
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
    V = eigvecs(space)
    return V @ P_eig @ V.T @ mass(space)

