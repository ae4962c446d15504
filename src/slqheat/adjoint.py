"""The conditioned backward sweep: the gradient kernel and the backward equation.

Both objects here condition one backward recursion on F_{t_n}.  It
adjoins a state X over 0..N: with multipliers m_k = 1 + dW_k (linear
noise; m_k = 1 for additive), G_N = -alpha X_N and V_n = -tau X_n,

    G_n = A0 (V_{n+1} + m_{n+2} G_{n+1})   (offset 2: gradient kernel),
    G_n = A0 m_{n+1} (V_{n+1} + G_{n+1})   (offset 1: implicit-Euler backward equation),

and the object is E[G_n | F_n]:

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

By the tower property the sweep :func:`_sweep` carries
H_n = E[G_n | F_l] at level l = min(n + offset, N): its update needs only
V_{n+1} lifted to level l and the sibling-pair average E[H_{n+1} | F_l]
(both the identity on ensembles), so a tree costs O(2^N d) instead of
O(N 2^N d); V and G fill per-call buffers, the lift is the broadcast view
``V[None]`` and the m_k are the driver's cached columns (:mod:`slqheat.noise`).
It conditions as it goes: on the tree E[H_n | F_n] is the exact subtree average,
``driver.parent_mean`` applied l - n <= 2 times, whose first application
is also where step n - 1 starts after a level drop; on Monte Carlo
ensembles it is a ridge-regularized least squares fit (features:
constant, leading eigenbasis coordinates of the state, and the Brownian
value at t_n), batched over all slices.
Processes hold eigen coordinates (see :mod:`slqheat.forward`), where A0
is an elementwise scale and L2 norms are euclidean.
"""

import numpy as np

from .forward import a0_scale, zeros_process


# Ridge of the regression normal equations: keeps degenerate slices such as
# t_0, where all paths coincide and the state columns are constant, solvable.
_RIDGE = 1e-10


def _regression_features(data, driver, state):
    """Features [1, xhat_1, ..., xhat_m, W(t_n)] of every slice of ``state``, shape (K, P, m + 2).

    xhat_i are the leading m = min(4, d) eigenbasis coordinates of the
    state slice; ``features[n]`` belongs to time index n and is a
    C-contiguous (P, m + 2) block copied out of ``state``.
    """
    # the exact conditional expectations are affine in the state
    # coordinates, but only the leading modes enter the basis: it is exact
    # only for data that load modes <= 4 (a mode-wise basis is ROADMAP item 8)
    m = min(4, data.space.dim)
    x = state.values
    feats = np.empty(x.shape[:2] + (m + 2,))
    feats[:, :, 0] = 1.0
    feats[:, :, 1 : m + 1] = x[:, :, :m]
    feats[:, :, m + 1] = driver.brownian(slice(len(x))).T
    return feats


def _sweep(data, driver, state, product_offset, out):
    """Write E[G_n | F_n] of the backward recursion into slot n of ``out``, n = N-1 down to 0.

    ``state`` is the process over 0..N that the recursion adjoins;
    ``product_offset`` is 2 for the gradient kernel and 1 for the
    backward equation; steps keep the recursion's order of operations but
    for one exact commuted sum, m H + V.  ``out`` is storage over 0..N-1
    (``ValueError`` if it or ``state`` does not fit) and may share
    ``state``'s slots: nothing is written to it before the sweep has read ``state``.

    V, G (alternating between two, so H is never overwritten) and A0 take
    the first rows of arrays of the largest slice, allocated once.  On a
    tree the conditioned slices, fresh ``parent_mean`` results, are held
    until the loop ends and joined into ``out.rows`` by one ``np.concatenate``.
    On an ensemble each step writes F_n^T H_n into one (N, m + 2, d)
    right-hand side; one batched product forms the grams F_n^T F_n, one
    batched ``np.linalg.solve`` the ridge systems (F_n^T F_n + 1e-10 I)
    beta_n = F_n^T H_n, and one batched product writes F_n beta_n into ``out``.
    """
    N, tau = data.grid.n_steps, data.grid.tau
    mult = driver.mult if data.noise == "linear" else np.ones((N, 1, 1, 1))
    out.check_fits(driver, data.space.dim, N - 1)
    state.check_fits(driver, data.space.dim, N)
    tree = driver.kind == "tree"
    if tree:
        held = [None] * N
    else:
        feats = _regression_features(data, driver, state)[:N]
        rhs = np.empty((N, feats.shape[2], data.space.dim))

    scale, *bufs = np.tile(a0_scale(data.space, tau), (4, len(state.values[N]), 1))
    H, level = -data.alpha * np.asarray(state.values[N]), N
    for n in range(N - 1, -1, -1):
        if n + product_offset < level:
            H, level = up, level - 1
        xs, G = state.values[n + 1], bufs[n % 2][: len(H)]
        sG = driver.siblings(G)
        if level > n + 1:
            # offset 2 below N - 1: V lifts to H's level as a broadcast view
            V = np.multiply(-tau, xs, out=bufs[2][: len(xs)])
            np.multiply(driver.siblings(H), mult[n + 1], out=sG)
            sG += V[None]
        else:
            np.multiply(-tau, xs, out=G)
            G += H
            if product_offset == 1:
                sG *= mult[n]
        G *= scale[: len(G)]
        H = G
        up = driver.parent_mean(H)
        if tree:
            held[n] = up if level == n + 1 else driver.parent_mean(up)
        else:
            np.matmul(feats[n].T, H, out=rhs[n])
    if tree:
        np.concatenate(held, out=out.rows)
        return
    gram = np.matmul(feats.transpose(0, 2, 1), feats) + _RIDGE * np.eye(feats.shape[2])
    np.matmul(feats, np.linalg.solve(gram, rhs), out=out.values)


def k_htau(data, driver, state, out=None):
    """Gradient kernel K X as an adapted process over n = 0..N-1.

    Q_n = -E[ tau sum_{j>n} A0^{j-n} prod m (X_j) | F_n ]
          - alpha E[ A0^{N-n} prod m (X_N) | F_n ],

    with the noise multipliers starting at step n+2.  ``out`` is storage
    over 0..N-1 to write Q into (``ValueError`` if it does not fit), such
    as ``state.head(N - 1)``: the sweep reads the state before Q is
    written.
    """
    N = data.grid.n_steps
    out = zeros_process(driver, data.space.dim, N - 1) if out is None else out
    _sweep(data, driver, state, 2, out)
    return out


def implicit_euler_bsde(data, driver, state):
    """Y0 of the implicit Euler discretization of the backward equation.

    Y0 satisfies Y0(t_N) = -alpha X(T) and, slice by slice,

        Y0(t_n) = A0 E[(1 + dW_{n+1}) (Y0(t_{n+1}) - tau X(t_{n+1})) | F_n],

    realized through the conditioned backward sweep with multipliers
    starting at n+1.  The martingale integrand Zbar0 is not formed: the adjoint
    gap reads only Y0.

    Returns
    -------
    AdaptedProcess over 0..N.
    """
    N = data.grid.n_steps
    y0 = zeros_process(driver, data.space.dim, N)
    y0.at(N)[...] = -data.alpha * np.asarray(state.at(N))
    _sweep(data, driver, state, 1, y0.head(N - 1))
    return y0


def adjoint_gap(data, driver, state):
    """Gap sup_n (E ||Y0(t_n) - Q(t_n)||_M^2)^{1/2} between the two objects.

    First order in tau for admissible state processes, which the
    adjoint-gap study confirms empirically.
    """
    y0 = implicit_euler_bsde(data, driver, state)
    diff = y0.head(data.grid.n_steps - 1) - k_htau(data, driver, state)
    # scenario weights are uniform within a tree level and across paths
    return float(np.sqrt(diff.slice_means(diff).max()))
