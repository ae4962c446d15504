import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slqheat.forward import SigmaSpec, default_sigma_spec, make_problem, solve_forward
from oracles import (
    all_pairs,
    closed_loop_moments,
    dense_to_nodal,
    direct_solve,
    eigvecs,
    entry_moments,
    feedback_control,
    fine_grid,
    full_closed_loop_stream,
    l2_norm,
    mass,
    mode_major,
    panel_hs_sweep,
    phi_at,
    riccati_mode_derivative,
    solve_riccati_dense,
)
from slqheat.mesh import alias_coefficients, build_fem_space
from slqheat.noise import TreeDriver, make_time_grid
from slqheat.optimizer import cost
from slqheat.riccati import (
    MODE_BOUND,
    RiccatiSolution,
    _closed_loop_moments,
    _hs_sweep,
    _pair_moments,
    _phi_sweep,
    _stationary_roots,
    cost_from_moments,
    discrete_feedback,
    discrete_value,
    riccati_mode_values,
    solve_riccati,
    value_function,
)


def riccati_for(space, horizon=1.0, alpha=1.0, k_fine=1024, spec=None, noise="linear"):
    """solve_riccati on the problem (space, horizon, alpha, spec, noise).

    The Riccati solution reads only the horizon of the problem's time
    grid, so a 4-step grid stands in for any other.
    """
    grid = make_time_grid(horizon, 4)
    data = make_problem(space, grid, alpha=alpha, sigma_spec=spec, noise=noise)
    return solve_riccati(data, k_fine)


def euler_mode_reference(lam, alpha, horizon, n_steps):
    """Explicit Euler for the reversed mode ODE q' = -q^2 + (1-2 lam) q + 1."""
    dt = horizon / n_steps
    b = 1.0 - 2.0 * lam
    q = alpha
    for _ in range(n_steps):
        q += dt * (-(q * q) + b * q + 1.0)
    return q  # p(0)


def euler_phi_reference(lam, alpha, horizon, sigma_fn, n_steps):
    """Euler for the coupled reversed system (q, psi); returns phi(0)."""
    dt = horizon / n_steps
    b = 1.0 - 2.0 * lam
    q = alpha
    psi = 0.0
    for k in range(n_steps):
        s = k * dt
        sig = sigma_fn(horizon - s)
        dpsi = -(lam + q) * psi + q * sig
        dq = -(q * q) + b * q + 1.0
        psi += dt * dpsi
        q += dt * dq
    return psi


def eigmode_sigma_spec(space, mode, scale=1.0):
    """SigmaSpec whose Ritz projection is exactly one eigenvector."""
    coeffs = eigvecs(space)[:, mode]
    full = np.concatenate(([0.0], coeffs, [0.0]))
    slopes = np.diff(full) / space.h

    def profile_dx(x):
        k = np.clip((np.asarray(x) / space.h).astype(int), 0, space.n_elems - 1)
        return slopes[k]

    return SigmaSpec(
        x0_dx=profile_dx,
        profile_dx=profile_dx,
        time_factor=lambda t: np.exp(-t),
        scale=scale,
    )


# ---------------------------------------------------------------- mode ODE


def test_terminal_condition_is_exact():
    space = build_fem_space(16)
    for alpha in (0.0, 0.37, 1.0, 5.0):
        ric = riccati_for(space, alpha=alpha, k_fine=64)
        p_nodes = ric.p_half[::2]
        assert_allclose(p_nodes[-1], alpha, rtol=0, atol=1e-13)
        assert p_nodes.shape == (65, space.dim)
        assert fine_grid(ric).shape == (65,)


def test_mode_solution_against_euler_oracle():
    # hypothetical lambda = 0 mode, alpha = 0, T = 1
    ref_fine = euler_mode_reference(0.0, 0.0, 1.0, 1_000_000)
    ref_coarse = euler_mode_reference(0.0, 0.0, 1.0, 100_000)
    p0 = riccati_mode_values([0.0], 0.0, 1.0, [0.0])[0, 0]
    assert abs(p0 - ref_fine) < 1e-5
    # the Euler oracle converges towards the closed form as it refines
    assert abs(p0 - ref_fine) < 0.2 * abs(p0 - ref_coarse)


def test_large_lambda_stationary_balance():
    # p(0) ~ 1/(2 lambda) for lambda >> 1
    for lam in (60.0, 200.0, 1000.0):
        for alpha in (0.0, 1.0):
            p0 = riccati_mode_values([lam], alpha, 1.0, [0.0])[0, 0]
            assert abs(p0 - 1.0 / (2.0 * lam)) < 0.2 / (2.0 * lam)


def test_exact_ode_residual_all_modes():
    # the closed form satisfies p' = 2 lam p - p - 1 + p^2 to roundoff,
    # including the stiffest modes of a fine mesh
    space = build_fem_space(256)
    lams = space.eigvals
    t = np.linspace(0.0, 1.0, 37)
    p = riccati_mode_values(lams, 1.0, 1.0, t).T
    dp = riccati_mode_derivative(lams, 1.0, 1.0, t)
    rhs = 2.0 * lams[:, None] * p - p - 1.0 + p * p
    scale = 1.0 + np.abs(rhs)
    assert (np.abs(dp - rhs) / scale).max() < 1e-10


def test_midpoint_residual_on_resolving_grids():
    # |p_{k+1} - p_k - dt f(p_mid)| <= 1e-8 once the grid resolves p''';
    # on the default grid this holds outside the terminal layer, and a
    # 16x finer grid satisfies it everywhere for the leading mode
    space = build_fem_space(8)
    lam1 = space.eigvals[0]

    def worst_residual(k_fine, t_mask=None):
        ric = riccati_for(space, k_fine=k_fine)
        p1 = ric.p_half[:, 0]
        dt = 1.0 / k_fine
        f = lambda p: 2 * lam1 * p - p - 1 + p * p
        res = np.abs(p1[2::2] - p1[:-1:2] - dt * f(p1[1::2]))
        if t_mask is not None:
            res = res[t_mask(fine_grid(ric)[:-1])]
        return res.max()

    assert worst_residual(16384) < 1e-8
    assert worst_residual(1024, t_mask=lambda t: t < 0.5) < 1e-8


def test_bounds_and_monotonicity_in_lambda():
    space = build_fem_space(64)
    ric = riccati_for(space, k_fine=256)
    r_plus, _, _ = _stationary_roots(space.eigvals)
    p = ric.p_half.T
    assert p.min() >= 0.0
    cap = np.maximum(ric.data.alpha, r_plus)
    assert (p <= cap[:, None] + 1e-12).all()
    # larger lambda gives pointwise smaller p (comparison principle)
    assert (np.diff(p, axis=0) <= 1e-12).all()


def test_stationary_roots_warn_at_no_mesh_size():
    # at n_elems >= 2816 one of the two expressions per sign of b would
    # divide by zero where the other is picked
    lams = build_fem_space(4096).eigvals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_plus, r_minus, _ = _stationary_roots(lams)
    assert np.isfinite(r_plus).all() and np.isfinite(r_minus).all()
    assert (r_minus < 0.0).all() and (0.0 < r_plus).all()


def test_max_p_non_increasing_under_mesh_refinement():
    maxima = []
    for n in (8, 16, 32, 64):
        ric = riccati_for(build_fem_space(n), k_fine=128)
        maxima.append(ric.p_half.max())
    assert all(b <= a + 1e-12 for a, b in zip(maxima, maxima[1:]))


def test_solve_riccati_validates_input():
    # the horizon and alpha are checked where the problem data are built
    space = build_fem_space(4)
    with pytest.raises(ValueError):
        riccati_for(space, k_fine=0)
    with pytest.raises(ValueError):
        riccati_for(space, horizon=-1.0)
    with pytest.raises(ValueError):
        riccati_for(space, alpha=-0.1)


# ------------------------------------------------------------- integrator


def test_hs_sweep_is_fourth_order():
    # manufactured solution y = exp(sin 2t) for y' = a(t) y + g(t)
    y_exact = lambda t: np.exp(np.sin(2 * t))
    a = lambda t: 1.4 * np.cos(2 * t)
    g = lambda t: 2 * np.cos(2 * t) * y_exact(t) - a(t) * y_exact(t)

    def err(K):
        t = np.linspace(0.0, 1.0, 2 * K + 1)
        y = _hs_sweep(a(t), g(t), 1.0, 1.0 / K)
        return np.abs(y - y_exact(t)).max()

    ratio = err(8) / err(16)
    assert 12.0 < ratio < 20.0


def test_hs_sweep_stable_and_monotone_for_stiff_decay():
    # y' = -1e6 (y - 1): the scheme is A-stable (but not L-stable), so the
    # deviation from equilibrium contracts by the diagonal rational
    # stability function R(z) = (12 + 6z + z^2)/(12 - 6z + z^2) per step,
    # monotonically and without overshoot
    K = 64
    t = np.linspace(0.0, 1.0, 2 * K + 1)
    y = _hs_sweep(np.full_like(t, -1e6), np.full_like(t, 1e6), 2.0, 1.0 / K)
    assert np.isfinite(y).all()
    nodes = y[::2]
    assert (np.diff(nodes) <= 1e-12).all()
    assert (nodes >= 1.0 - 1e-12).all()
    z = -1e6 / K
    R = (12.0 + 6.0 * z + z * z) / (12.0 - 6.0 * z + z * z)
    assert abs(y[-1] - (1.0 + R**K)) < 1e-12


@pytest.mark.parametrize("lam_max", [1.0, 2e8], ids=["mild", "stiff"])
def test_hs_sweep_matches_panel_loop(lam_max):
    # the whole-array panel coefficients against the per-panel elimination,
    # on time-varying decay rates up to lam_max and an oscillating source.
    # The nodes agree to 1e-12 of each column's max.  A midpoint sums terms
    # of size |a| dt |y| in both forms (1e-10 of |y| at lam = 2e8), so there
    # the two are held equally close to the per-panel loop in long double
    K = 32
    t = np.linspace(0.0, 1.0, 2 * K + 1)[:, None]
    lams = np.geomspace(1e-2, lam_max, 12)
    a = -lams * (1.0 + 0.5 * np.sin(3 * t)) + 0.3
    g = np.cos(5 * t + lams) * (1.0 + lams) ** 0.5
    y0 = np.linspace(-1.0, 2.0, len(lams))
    y, ref = _hs_sweep(a, g, y0, 1.0 / K), panel_hs_sweep(a, g, y0, 1.0 / K)
    scale = np.abs(ref).max(axis=0)
    assert (np.abs(y - ref)[::2] <= 1e-12 * scale).all()
    wide = lambda v: np.asarray(v, dtype=np.longdouble)
    exact = panel_hs_sweep(wide(a), wide(g), wide(y0), wide(1.0 / K))
    err = lambda v: (np.abs(v - exact).max(axis=0) / scale).astype(float)
    assert (err(y) <= 2.0 * err(ref) + 4.0 * np.finfo(float).eps).all()


def test_hs_sweep_reduces_to_simpson_quadrature():
    K = 64
    t = np.linspace(0.0, 1.0, 2 * K + 1)
    g = np.cos(3 * t)
    y = _hs_sweep(np.zeros_like(t), g, 0.0, 1.0 / K)
    exact = np.sin(3.0) / 3.0
    assert abs(y[-1] - exact) < 1e-9


# -------------------------------------------------------------------- phi


def test_phi_zero_for_zero_sigma():
    space = build_fem_space(8)
    ric = riccati_for(space, k_fine=128, spec=default_sigma_spec(scale=0.0))
    assert np.abs(ric.phi_half).max() == 0.0
    assert np.abs(ric.value_integral).max() == 0.0


def test_phi_zero_when_p_forced_zero():
    # the source is p * sigma, so zero p kills phi regardless of sigma
    ric = riccati_for(build_fem_space(8), alpha=0.0, k_fine=128)
    assert np.abs(ric.sigma_eig_half).max() > 0.1
    lams, zero_p = ric.data.space.eigvals, np.zeros_like(ric.p_half)
    phi_half, _ = _phi_sweep(lams, zero_p, ric.sigma_eig_half, ric.dt)
    assert np.abs(phi_half).max() <= 1e-15


def test_phi_single_mode_against_euler_oracle():
    space = build_fem_space(4)
    mode = 0
    spec = eigmode_sigma_spec(space, mode)
    ric = riccati_for(space, spec=spec)
    # the noise profile is exactly the eigenvector, so only one mode is excited
    others = np.delete(np.arange(space.dim), mode)
    assert np.abs(ric.phi_half[:, others]).max() < 1e-12
    ref = euler_phi_reference(
        space.eigvals[mode], 1.0, 1.0, lambda t: np.exp(-t), 1_000_000
    )
    assert abs(ric.phi_half[0, mode] - ref) < 2e-6


def test_phi_sign_coupling_and_value_integral_decreasing():
    # phi_i tracks p_i sigma_i / (lam_i + p_i), so it carries sigma's sign
    # mode by mode (the eigenvector orientation is arbitrary); the running
    # cost-to-go from the zero state decreases towards zero at T
    space = build_fem_space(16)
    ric = riccati_for(space)
    assert (ric.phi_half * ric.sigma_eig_half).min() >= -1e-14
    assert ric.value_integral[-1] == 0.0
    assert (np.diff(ric.value_integral) <= 1e-15).all()
    assert ric.value_integral[0] > 0


# ------------------------------------------------------ feedback and value


def test_feedback_trivial_cases():
    space = build_fem_space(8)
    ric = riccati_for(space, alpha=0.0, spec=default_sigma_spec(scale=0.0))
    # zero noise data: the offset gain phi vanishes
    _, h = feedback_control(ric, [0.3])
    assert_allclose(h, 0.0, atol=1e-15)
    # alpha = 0: p(T) = 0 and phi(T) = 0, so both gains vanish at T
    g, h = feedback_control(ric, [1.0])
    assert np.abs(g).max() < 1e-12 and np.abs(h).max() < 1e-12


def test_feedback_rejects_time_outside_horizon():
    space = build_fem_space(4)
    ric = riccati_for(space)
    with pytest.raises(ValueError):
        feedback_control(ric, [0.0, 1.5])
    with pytest.raises(ValueError):
        feedback_control(ric, [-0.2])


def test_single_mode_feedback_against_dense_oracle():
    # d = 1: u = -p_1(t) x_1 - phi_1(t) with p_1 from the dense integrator
    space = build_fem_space(2)
    t_nodes, P = solve_riccati_dense(space, 1.0, 1.0, k_fine=4096)
    ric = riccati_for(space, k_fine=4096)
    x = np.array([0.8])
    ks = [0, 1000, 2500, 4096]
    g, h = feedback_control(ric, t_nodes[ks])
    for j, k in enumerate(ks):
        u_ref = -P[k, 0, 0] * x - phi_at(ric, t_nodes[k])
        assert_allclose(-(g[j] * x + h[j]), u_ref, atol=2e-9)


def test_value_function_trivial_zero():
    space = build_fem_space(8)
    ric = riccati_for(space, spec=default_sigma_spec(scale=0.0))
    ric = replace(ric, data=replace(ric.data, x0=np.zeros(space.dim)))
    assert value_function(ric) == 0.0


def test_value_function_small_horizon_taylor():
    # alpha = 0, T -> 0: V ~ (T/2) ||x0||^2
    space = build_fem_space(8)
    T = 1e-3
    grid = make_time_grid(T, 2)
    data = make_problem(space, grid, alpha=0.0)
    ric = solve_riccati(data, 256)
    v = value_function(ric)
    lead = 0.5 * T * l2_norm(space, space.from_eigen(data.x0)) ** 2
    assert abs(v - lead) < 0.03 * lead


# ------------------------------------------------------------ dense oracle


def test_dense_oracle_agrees_with_mode_solver():
    # cross-check on d in {1, 3, 7}; the oracle's own RK4 truncation error
    # in the terminal layer is the binding constraint, so the step count
    # grows with the stiffest eigenvalue
    for n_elems, k_fine in ((2, 32768), (4, 32768), (8, 65536)):
        space = build_fem_space(n_elems)
        t_nodes, P = solve_riccati_dense(space, 1.0, 1.0, k_fine=k_fine)
        p_ref = riccati_mode_values(space.eigvals, 1.0, 1.0, t_nodes).T
        diag = np.einsum("kii->ik", P)
        assert np.abs(diag - p_ref).max() <= 1e-9
        # off-diagonal entries stay numerically zero: the flow preserves
        # commutativity with the Laplacian
        mask = ~np.eye(space.dim, dtype=bool)
        if mask.any():
            assert np.abs(P[:, mask]).max() <= 1e-9
        # symmetry and exact terminal value
        assert np.abs(P - np.transpose(P, (0, 2, 1))).max() <= 1e-10
        assert np.abs(P[-1] - np.eye(space.dim)).max() == 0.0


def test_dense_oracle_warns_outside_stability_region():
    space = build_fem_space(16)  # lambda_max ~ 3e3
    with pytest.warns(RuntimeWarning, match="stability"):
        try:
            solve_riccati_dense(space, 1.0, 1.0, k_fine=64)
        except ArithmeticError:
            pass  # blowup detection may fire as well; the warning is the contract


def test_dense_oracle_rejects_large_spaces():
    with pytest.raises(ValueError):
        solve_riccati_dense(build_fem_space(80), 1.0, 1.0)


def test_dense_nodal_reassembly_is_m_selfadjoint():
    space = build_fem_space(6)
    t_nodes, P = solve_riccati_dense(space, 1.0, 1.0, k_fine=2048)
    op = dense_to_nodal(space, P[0])
    # operator on nodal coefficients: M-selfadjoint and equal to alpha I at T
    assert np.abs(mass(space) @ op - op.T @ mass(space)).max() < 1e-10
    assert_allclose(dense_to_nodal(space, P[-1]), np.eye(space.dim), atol=1e-12)


# ----------------------------------------------------------------- moments


def test_moments_trivial_zero_data():
    space = build_fem_space(6)
    grid = make_time_grid(1.0, 4)
    spec = default_sigma_spec(scale=0.0)
    zero_spec = SigmaSpec(
        x0_dx=lambda x: 0.0 * x,
        profile_dx=spec.profile_dx,
        time_factor=spec.time_factor,
        scale=0.0,
    )
    ric = solve_riccati(make_problem(space, grid, alpha=1.0, sigma_spec=zero_spec), 128)
    traj = closed_loop_moments(ric)
    assert np.abs(traj[0].m).max() == 0.0
    assert max(np.abs(ms.S).max() for ms in traj) <= 1e-15
    assert cost_from_moments(ric) <= 1e-15


def test_moments_zero_feedback_closed_form():
    # with p and phi forced to zero and sigma = 0 the second moment solves
    # S_ii' = (1 - 2 lam_i) S_ii
    space = build_fem_space(4)
    grid = make_time_grid(1.0, 4)
    data = make_problem(space, grid, alpha=0.0, sigma_spec=default_sigma_spec(scale=0.0))
    base = solve_riccati(data, 1024)
    zeroed = RiccatiSolution(
        data=data,
        k_fine=base.k_fine,
        p_half=np.zeros_like(base.p_half),
        phi_half=np.zeros_like(base.p_half),
        sigma_eig_half=np.zeros_like(base.p_half),
        value_integral=np.zeros(base.k_fine + 1),
    )
    traj = closed_loop_moments(zeroed)
    m0 = data.x0
    t = fine_grid(zeroed)
    for i in range(space.dim):
        ref = m0[i] ** 2 * np.exp((1.0 - 2.0 * space.eigvals[i]) * t)
        got = np.array([ms.S[i, i] for ms in traj])
        keep = ref > 1e-10 * ref[0]
        assert_allclose(got[keep], ref[keep], rtol=2e-3)


def test_moments_are_symmetric_with_psd_covariance():
    space = build_fem_space(8)
    grid = make_time_grid(1.0, 4)
    ric = solve_riccati(make_problem(space, grid, alpha=1.0), 512)
    traj = closed_loop_moments(ric)
    for ms in traj[:: len(traj) // 8]:
        assert np.abs(ms.S - ms.S.T).max() < 1e-12
        cov = ms.S - np.outer(ms.m, ms.m)
        assert np.linalg.eigvalsh(cov).min() > -1e-10


def test_cost_from_moments_matches_value_function():
    # two independent deterministic evaluations of the optimal cost
    space = build_fem_space(8)
    rng = np.random.default_rng(2)
    for _ in range(5):
        alpha = float(rng.uniform(0.0, 2.0))
        horizon = float(rng.uniform(0.3, 1.5))
        scale = float(rng.uniform(0.0, 1.5))
        grid = make_time_grid(horizon, 4)
        spec = default_sigma_spec(scale=scale)
        data = make_problem(space, grid, alpha=alpha, sigma_spec=spec)
        ric = solve_riccati(data, 1024)
        v = value_function(ric)
        c = cost_from_moments(ric)
        assert abs(v - c) <= 1e-6 * max(1.0, abs(v)), (alpha, horizon, scale, v, c)


def test_cost_from_moments_matches_value_function_where_phi_squared_weighs():
    # with x0 = 0 the value is the integral alone, and at alpha = 10 its
    # -phi^2 part is 8.4e-3 of V: the two evaluations agree to 1.2e-11, so
    # a 0.1 % slip in that term (8.4e-6 of V) fails the 1e-9 pin
    spec = default_sigma_spec()
    spec = SigmaSpec(x0_dx=lambda x: 0.0 * x, profile_dx=spec.profile_dx, time_factor=spec.time_factor)
    ric = riccati_for(build_fem_space(8), alpha=10.0, spec=spec)
    v, c = value_function(ric), cost_from_moments(ric)
    assert abs(v - c) <= 1e-9 * abs(v), (v, c)


def test_moment_oracle_rejects_additive_noise():
    # the Riccati route covers linear noise only, so the one constructor
    # refuses additive data before any moment is swept
    space = build_fem_space(4)
    grid = make_time_grid(1.0, 4)
    with pytest.raises(ValueError, match="noise='additive'"):
        solve_riccati(make_problem(space, grid, noise="additive"), 64)


def test_solve_riccati_takes_alpha_up_to_the_mode_bound():
    # each p_i runs monotonically between alpha and its root r+ < 1.62, so the
    # closed form stays finite right up to the bound and only alpha is checked
    space, grid = build_fem_space(8), make_time_grid(1.0, 4)
    ric = solve_riccati(make_problem(space, grid, alpha=MODE_BOUND - 1e-8), 64)
    assert np.isfinite(ric.p_half).all() and np.isfinite(ric.phi_half).all()
    assert ric.p_half.max() - (MODE_BOUND - 1e-8) <= 1e-11 * MODE_BOUND
    for alpha in (MODE_BOUND, np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            solve_riccati(make_problem(space, grid, alpha=alpha), 64)


# ------------------------------------------- entry-indexed moment sweep


def _moment_setup(n_elems=8, k_fine=32):
    space = build_fem_space(n_elems)
    data = make_problem(space, make_time_grid(1.0, 4), alpha=1.0)
    ric = solve_riccati(data, k_fine)
    return space, ric, data.x0


def _full_trajectory(ric, m0):
    stream = full_closed_loop_stream(mode_major([ric]), m0, np.outer(m0, m0))
    return [(idx, m.copy(), S.copy()) for idx, m, S in stream]


_SMALL = _moment_setup()
_SMALL_FULL = _full_trajectory(_SMALL[1], _SMALL[2])
_SMALL_DIM = _SMALL[0].dim


def _assert_matches_full_sweep(m, S, rows, cols):
    assert [idx for idx, _, _ in _SMALL_FULL] == list(range(len(m))) == list(range(len(S)))
    for idx, m_ref, S_ref in _SMALL_FULL:
        assert_allclose(m[idx], m_ref, rtol=1e-12, atol=0)
        assert_allclose(S[idx], S_ref[rows, cols], rtol=1e-12, atol=0)


def _assert_entries_match(rows, cols):
    _assert_matches_full_sweep(*entry_moments([_SMALL[1]], rows, cols), rows, cols)


def test_pair_moment_sweep_couples_solutions_on_one_dense_grid():
    space, ric, _ = _SMALL
    m, S = _closed_loop_moments(ric)
    # a solution paired with itself: every mode is its own alias with c = 1,
    # the coarse block is its own sweep, and the difference process is zero
    partner, c = alias_coefficients(space, space)
    m_d, S_dd, S_dc, m_c, S_cc = _pair_moments(ric, ric, partner, c)
    np.testing.assert_array_equal(m_c, m)
    np.testing.assert_array_equal(S_cc, S)
    assert not (m_d.any() or S_dd.any() or S_dc.any())
    # the rows of a pair are common time points: another k_fine or another
    # horizon (here with the same node spacing) samples another grid
    finer = solve_riccati(ric.data, 2 * ric.k_fine)
    longer = solve_riccati(make_problem(space, make_time_grid(2.0, 4), alpha=1.0), ric.k_fine)
    longer_same_dt = solve_riccati(longer.data, 2 * ric.k_fine)
    for other in (finer, longer, longer_same_dt):
        with pytest.raises(ValueError, match="one dense grid"):
            _pair_moments(ric, other, partner, c)


def test_entry_stream_matches_full_sweep_on_diagonal_block_and_all_pairs():
    d = _SMALL_DIM
    diag = np.arange(d)
    # the library sweeps one solution's diagonal, the oracle any entries
    _assert_matches_full_sweep(*_closed_loop_moments(_SMALL[1]), diag, diag)
    _assert_entries_match(diag, diag)
    # a 3 x (d - 3) off-diagonal block, row-major, as the joint study reads it
    _assert_entries_match(np.repeat(np.arange(3), d - 3), np.tile(np.arange(3, d), 3))
    _assert_entries_match(*all_pairs(d))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, _SMALL_DIM - 1), st.integers(0, _SMALL_DIM - 1)),
        min_size=1,
        max_size=30,
    )
)
def test_entry_stream_matches_full_sweep_on_any_entry_subset(pairs):
    rows, cols = (np.array(v) for v in zip(*pairs))
    _assert_entries_match(rows, cols)


def test_cost_from_moments_matches_full_matrix_evaluation():
    space = build_fem_space(16)
    data = make_problem(space, make_time_grid(0.7, 4), alpha=0.6)
    ric = solve_riccati(data, 128)
    m0 = data.x0
    vals = np.empty(2 * ric.k_fine + 1)
    for idx, m, S in full_closed_loop_stream(mode_major([ric]), m0, np.outer(m0, m0)):
        p, phi, diag = ric.p_half[idx], ric.phi_half[idx], np.diagonal(S)
        u_sq = (p**2 * diag).sum() + 2.0 * (p * phi * m).sum() + (phi**2).sum()
        vals[idx] = diag.sum() + u_sq
    dt = ric.dt
    simpson = (dt / 6.0) * (vals[:-1:2] + 4.0 * vals[1::2] + vals[2::2]).sum()
    ref = 0.5 * simpson + 0.5 * data.alpha * diag.sum()
    assert_allclose(cost_from_moments(ric), ref, rtol=1e-12)


# ------------------------------------------------ discrete Riccati recursion

# sigma(t, x) = 2 (1 + t) x (1 - x) loads every odd mode, not only the first
MULTI_MODE_SPEC = SigmaSpec(
    x0_dx=lambda x: np.pi * np.cos(np.pi * x),
    profile_dx=lambda x: 1.0 - 2.0 * x,
    time_factor=lambda t: 1.0 + t,
    scale=2.0,
)


@pytest.mark.parametrize("spec", [None, MULTI_MODE_SPEC], ids=["default", "multi_mode"])
@pytest.mark.parametrize("noise", ["linear", "additive"])
@pytest.mark.parametrize("depth", [4, 8])
def test_discrete_feedback_matches_cg_oracle(depth, noise, spec):
    space = build_fem_space(8)
    grid = make_time_grid(1.0, depth)
    data = make_problem(space, grid, alpha=1.0, sigma_spec=spec, noise=noise)
    driver = TreeDriver(grid)
    u_cg = direct_solve(data, driver, tol=1e-14)
    _, u_fb = solve_forward(data, driver, discrete_feedback(data))
    scale = max(np.abs(u_cg.at(n)).max() for n in range(depth))
    worst = max(np.abs(u_fb.at(n) - u_cg.at(n)).max() for n in range(depth))
    assert worst <= 1e-12 * scale


# x0 = sigma profile = sin(pi x) + sin(7 pi x): the data load modes 1 and 7
MODES_1_7_SPEC = SigmaSpec(
    x0_dx=lambda x: np.pi * np.cos(np.pi * x) + 7 * np.pi * np.cos(7 * np.pi * x),
    profile_dx=lambda x: np.pi * np.cos(np.pi * x) + 7 * np.pi * np.cos(7 * np.pi * x),
    time_factor=lambda t: np.exp(-t),
    scale=2.0,
)


@pytest.mark.parametrize("spec", [None, MODES_1_7_SPEC], ids=["default", "modes_1_7"])
@pytest.mark.parametrize("noise", ["linear", "additive"])
@pytest.mark.parametrize("depth", [4, 8])
def test_discrete_value_is_the_tree_cost_of_the_discrete_feedback(depth, noise, spec):
    space = build_fem_space(8)
    grid = make_time_grid(1.0, depth)
    data = make_problem(space, grid, alpha=1.0, sigma_spec=spec, noise=noise)
    x, u = solve_forward(data, TreeDriver(grid), discrete_feedback(data))
    assert_allclose(discrete_value(data), cost(data, x, u), rtol=1e-12)


@pytest.mark.parametrize("noise", ["linear", "additive"])
def test_discrete_value_matches_cost_at_cg_optimum(noise):
    space = build_fem_space(8)
    grid = make_time_grid(1.0, 6)
    data = make_problem(space, grid, alpha=1.0, sigma_spec=MODES_1_7_SPEC, noise=noise)
    driver = TreeDriver(grid)
    u_cg = direct_solve(data, driver, tol=1e-14)
    j_cg = cost(data, solve_forward(data, driver, u_cg), u_cg)
    assert_allclose(discrete_value(data), j_cg, rtol=1e-10)

