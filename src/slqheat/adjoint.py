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

The sweep reads its driver from the state it adjoins, so no second driver
can disagree with the state's.  By the tower property :func:`_sweep` carries
H_n = E[G_n | F_l] at level l = min(n + offset, N): its update needs only
V_{n+1} lifted to level l and the sibling-pair average E[H_{n+1} | F_l]
(both the identity on ensembles), so a tree costs O(2^N d) instead of
O(N 2^N d); the lift is the broadcast view ``V[None]`` and the m_k are
the driver's cached columns (:mod:`slqheat.noise`).
It conditions as it goes: on the tree E[H_n | F_n] is the exact subtree average,
``driver.parent_mean`` applied l - n <= 2 times, whose first application
is also where step n - 1 starts after a level drop; on Monte Carlo
ensembles it is a ridge-regularized least squares fit (features:
constant, leading eigenbasis coordinates of the state, and the Brownian
value at t_n), batched over blocks of slices.
Processes hold eigen coordinates (see :mod:`slqheat.forward`), where A0
is an elementwise scale and L2 norms are euclidean.
"""

import numpy as np

from .forward import zeros_process


# Ridge of the regression normal equations: keeps degenerate slices such as
# t_0, where all paths coincide and the state columns are constant, solvable.
_RIDGE = 1e-10


def _regression_features(data, state):
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
    feats[:, :, m + 1] = state.driver.brownian(slice(len(x))).T
    return feats


def _sweep(data, state, product_offset, out):
    """Write E[G_n | F_n] of the backward recursion into slot n of ``out``, n = N-1 down to 0.

    ``state`` is the process over 0..N that the recursion adjoins;
    ``product_offset`` is 2 for the gradient kernel and 1 for the
    backward equation; steps keep the recursion's order of operations but
    for exact commuted sums such as m H + V.  ``out`` is storage over 0..N-1
    (``ValueError`` if it or ``state`` does not fit) and may share
    ``state``'s slots: no slot n is written before X_n has been read.

    On a tree V and G (alternating, so H is never overwritten) fill per-call
    arrays of the largest slice, A0 is ``data.a0_rows`` of that size, and the
    conditioned slices, fresh ``parent_mean`` results, are held until the
    loop ends and joined into ``out.rows`` by one ``np.concatenate``.  An
    ensemble step takes -tau X_n for step n - 1, then writes the pathwise G_n
    into slot n of ``out`` through views built once per ``out``, problem and
    state.  After the loop, per block of 64 slices, one stacked product forms
    the right-hand sides F_n^T G_n, one the grams F_n^T F_n, one batched
    ``np.linalg.solve`` the ridge systems (F_n^T F_n + 1e-10 I) beta_n =
    F_n^T G_n, and one product writes F_n beta_n into ``out``.
    """
    N, tau, driver, x = data.grid.n_steps, data.grid.tau, state.driver, state.values
    mult = data.multipliers(driver)
    out.check_fits(driver, data.space.dim, N - 1)
    state.check_fits(driver, data.space.dim, N)
    if driver.kind == "tree":
        held = [None] * N
        scale = data.a0_rows(len(x[N]))
        bufs = np.empty((3,) + scale.shape)
        H, level = -data.alpha * x[N], N
        for n in range(N - 1, -1, -1):
            if n + product_offset < level:
                H, level = up, level - 1
            G = bufs[n % 2][: len(H)]
            sG = driver.siblings(G)
            if level > n + 1:
                # offset 2 below N - 1: V lifts to H's level as a broadcast view
                V = np.multiply(-tau, x[n + 1], out=bufs[2][: len(x[n + 1])])
                np.multiply(driver.siblings(H), mult[n + 1], out=sG)
                sG += V[None]
            else:
                np.multiply(-tau, x[n + 1], out=G)
                G += H
                if product_offset == 1:
                    sG *= mult[n]
            G *= scale[: len(G)]
            H = G
            up = driver.parent_mean(H)
            held[n] = up if level == n + 1 else driver.parent_mean(up)
        np.concatenate(held, out=out.rows)
        return

    def views():
        # n = 0..N: X_n, the buffer of -tau X_n, and G_n (slot n of out; G_N = -alpha X_N)
        v = list(np.empty((2,) + x.shape[1:]))
        xs, vs, gs = list(x), [v[n % 2] for n in range(N + 1)], [*out.values, np.empty(x.shape[1:])]
        ms = list(mult[:, 0]) if product_offset == 1 else [*mult[1:, 0], 1.0]
        # step n = N-1 down to 0 reads X_n, -tau X_n, -tau X_{n+1}, G_{n+1}, G_n, multiplier
        n, n1 = slice(N - 1, None, -1), slice(N, 0, -1)
        steps = xs[n], vs[n], vs[n1], gs[n1], gs[n], ms[::-1]
        return steps, xs[N], vs[N], gs[N], data.a0_rows(len(x[N]))

    feats = _regression_features(data, state)[:N]
    steps, x_end, v_end, h_end, scale = out.step_views(product_offset, data, state, views)
    np.multiply(-tau, x_end, out=v_end)
    np.multiply(-data.alpha, x_end, out=h_end)
    for xn, v_new, v, h, g_n, m in zip(*steps):
        np.multiply(-tau, xn, out=v_new)
        if product_offset == 2:
            np.multiply(h, m, out=g_n)
            g_n += v
        else:
            np.add(v, h, out=g_n)
            g_n *= m
        g_n *= scale
    ridge = _RIDGE * np.eye(feats.shape[2])
    for k in range(0, N, 64):  # blocks bound the fit's temporaries and stay in cache
        f, g = feats[k : k + 64], out.values[k : k + 64]
        ft = f.transpose(0, 2, 1)
        np.matmul(f, np.linalg.solve(np.matmul(ft, f) + ridge, np.matmul(ft, g)), out=g)


def k_htau(data, state, out=None):
    """Gradient kernel K X as an adapted process over n = 0..N-1.

    Q_n = -E[ tau sum_{j>n} A0^{j-n} prod m (X_j) | F_n ]
          - alpha E[ A0^{N-n} prod m (X_N) | F_n ],

    with the noise multipliers starting at step n+2.  ``out`` is storage
    over 0..N-1 to write Q into (``ValueError`` if it does not fit), such
    as ``state.head(N - 1)``: the sweep reads the state before Q is
    written.
    """
    N = data.grid.n_steps
    out = zeros_process(state.driver, data.space.dim, N - 1) if out is None else out
    _sweep(data, state, 2, out)
    return out


def implicit_euler_bsde(data, state):
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
    y0 = zeros_process(state.driver, data.space.dim, N)
    y0.at(N)[...] = -data.alpha * np.asarray(state.at(N))
    _sweep(data, state, 1, y0.head(N - 1))
    return y0


def adjoint_gap(data, state):
    """Gap sup_n (E ||Y0(t_n) - Q(t_n)||_M^2)^{1/2} between the two objects.

    First order in tau for admissible state processes, which the
    adjoint-gap study confirms empirically.
    """
    y0 = implicit_euler_bsde(data, state)
    diff = y0.head(data.grid.n_steps - 1) - k_htau(data, state)
    # scenario weights are uniform within a tree level and across paths
    return float(np.sqrt(diff.slice_means(diff).max()))
