"""Conditioning on F_{t_n}, the gradient kernel and the backward equation.

Both objects here are the shared backward recursion of
:mod:`slqheat.forward`, which reads the state X it adjoins (source
-tau X, terminal value -alpha X_N), fed through the conditioning pass of
:func:`condexp`:

* ``k_htau`` -- the kernel K X = -L*(X) - alpha Lhat*(X_N) appearing in
  the discrete optimality condition U = K X (noise multipliers start two
  steps past the conditioning time), with L* and Lhat* the adjoints of
  the control-to-state and control-to-terminal-state maps;

* ``implicit_euler_bsde`` -- the component Y0 of the implicit Euler
  discretization of the backward equation

      dY = (-Laplace Y - Z + X) dt + Z dW,   Y(T) = -alpha X(T),

  whose multipliers start one step past the conditioning time.  The two
  differ by O(tau) uniformly in time, which the adjoint-gap study
  measures.

All conditioning goes through :func:`condexp`, which reads a whole
backward sweep, then writes E[H_n | F_n] into caller storage (which may
be the state's own slots): exact subtree means on the scenario tree,
taken with the sweep's own sibling-pair average ``driver.parent_mean``,
and ridge-regularized least squares on Monte Carlo ensembles (features:
constant, leading eigenbasis coordinates of the state, and the Brownian
value at t_n), batched over all slices.  Processes hold eigen
coordinates (see :mod:`slqheat.forward`), so L2 norms are euclidean.
"""

import numpy as np

from .forward import backward_kernel, zeros_process


# Ridge of the regression normal equations: keeps degenerate slices such as
# t_0, where all paths coincide and the state columns are constant, solvable.
_RIDGE = 1e-10


def _regression_features(data, driver, state):
    """Features [1, xhat_1, ..., xhat_m, W(t_n)] of every slice of ``state``, shape (K, P, m + 2).

    xhat_i are the leading m = min(4, d) eigenbasis coordinates of the
    state slice; ``features[k]`` belongs to time index ``state.start + k``
    and is a C-contiguous (P, m + 2) block.
    """
    # the exact conditional expectations are affine in the state
    # coordinates, but only the leading modes enter the basis: it is exact
    # only for data that load modes <= 4 (a mode-wise basis is ROADMAP item 2)
    m = min(4, data.space.dim)
    x = state.values
    feats = np.empty(x.shape[:2] + (m + 2,))
    feats[:, :, 0] = 1.0
    feats[:, :, 1 : m + 1] = x[:, :, :m]
    feats[:, :, m + 1] = driver.brownian(slice(state.start, state.stop + 1)).T
    return feats


def condexp(data, driver, items, out, state):
    """Write E[H | F_{t_n}] into ``out.at(n)`` for each item (n, H, level) of a backward sweep.

    ``H`` holds per-scenario values living at time index ``level``; the
    items fill ``out`` once each.  All items are read before ``out`` is
    written, so ``out`` may share storage with ``state``.  On a scenario
    tree each item is the exact subtree average over the level-``n``
    nodes, ``driver.parent_mean`` applied level - n times (at most twice
    for the sweeps of :mod:`slqheat.forward`).  On an ensemble it is the
    ridge least-squares regression of H on [1, xhat_1, ..., xhat_m,
    W(t_n)], with xhat_i the leading
    m = min(4, d) eigenbasis coordinates of ``state`` at t_n: one batched
    product forms the grams F_n^T F_n, each item its F_n^T H, one batched
    ``np.linalg.solve`` the ridge systems (F_n^T F_n + 1e-10 I) beta_n =
    F_n^T H, and one batched product writes F_n beta_n into ``out``.

    Raises
    ------
    ValueError
        When ``out`` is not one item per time index with one row per
        scenario.
    """
    tree = driver.kind == "tree"
    feats = None if tree else _regression_features(data, driver, state)
    steps, results = [], []
    for n, H, level in items:
        steps.append(n)
        if tree:
            for _ in range(level - n):
                H = driver.parent_mean(H)
            results.append(H)
        else:
            results.append(feats[n - state.start].T @ H)
    if sorted(steps) != list(range(out.start, out.stop + 1)):
        raise ValueError(f"{len(steps)} items do not fill {out.start}..{out.stop} once each")
    out.check_fits(driver, np.shape(out.at(out.start))[-1], out.start, out.stop)
    if tree:
        for n, value in zip(steps, results):
            out.at(n)[...] = value
        return
    # the sweep's slices in time order: contiguous views of the features and of out
    F = feats[out.start - state.start : out.stop - state.start + 1]
    gram = np.matmul(F.transpose(0, 2, 1), F) + _RIDGE * np.eye(feats.shape[2])
    betas = np.linalg.solve(gram, np.array(results)[np.argsort(steps)])
    np.matmul(F, betas, out=out.values)


def k_htau(data, driver, state, out=None):
    """Gradient kernel K X as an adapted process over n = 0..N-1.

    Q_n = -E[ tau sum_{j>n} A0^{j-n} prod m (X_j) | F_n ]
          - alpha E[ A0^{N-n} prod m (X_N) | F_n ],

    with the noise multipliers starting at step n+2.  ``out`` is storage
    over 0..N-1 to write Q into (:func:`condexp` raises ``ValueError`` if
    it does not fit), such as ``state.window(0, N - 1)``: the sweep is
    read before Q is written.
    """
    N = data.grid.n_steps
    out = zeros_process(driver, data.space.dim, 0, N - 1) if out is None else out
    condexp(data, driver, backward_kernel(data, driver, state, product_offset=2), out, state)
    return out


def implicit_euler_bsde(data, driver, state):
    """Y0 of the implicit Euler discretization of the backward equation.

    Y0 satisfies Y0(t_N) = -alpha X(T) and, slice by slice,

        Y0(t_n) = A0 E[(1 + dW_{n+1}) (Y0(t_{n+1}) - tau X(t_{n+1})) | F_n],

    realized through the shared backward kernel with multipliers starting
    at n+1.  The martingale integrand Zbar0 is not formed: the adjoint
    gap reads only Y0.

    Returns
    -------
    AdaptedProcess over 0..N.
    """
    N = data.grid.n_steps
    y0 = zeros_process(driver, data.space.dim, 0, N)
    y0.at(N)[...] = -data.alpha * np.asarray(state.at(N))
    sweep = backward_kernel(data, driver, state, product_offset=1)
    condexp(data, driver, sweep, y0.window(0, N - 1), state)
    return y0


def adjoint_gap(data, driver, state):
    """Gap sup_n (E ||Y0(t_n) - Q(t_n)||_M^2)^{1/2} between the two objects.

    First order in tau for admissible state processes, which the
    adjoint-gap study confirms empirically.
    """
    y0 = implicit_euler_bsde(data, driver, state)
    diff = y0.window(0, data.grid.n_steps - 1) - k_htau(data, driver, state)
    # scenario weights are uniform within a tree level and across paths
    return float(np.sqrt(diff.slice_means(diff).max()))
