import numpy as np
import pytest
from numpy.testing import assert_allclose

from slqheat.forward import SigmaSpec, default_sigma_spec, make_problem
from oracles import eval_fem, l2_norm
from slqheat.mesh import build_fem_space
from slqheat.noise import make_time_grid
from slqheat.riccati import (
    MomentState,
    RiccatiSolution,
    _hs_sweep,
    _stationary_roots,
    closed_loop_moments,
    cost_from_moments,
    dense_to_nodal,
    feedback_control,
    riccati_mode_values,
    sigma_eig_on_half_grid,
    solve_phi,
    solve_riccati,
    solve_riccati_dense,
    value_function,
)


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
    coeffs = space.eigvecs[:, mode]
    full = np.concatenate(([0.0], coeffs, [0.0]))
    slopes = np.diff(full) / space.h

    def profile(x):
        return eval_fem(space, coeffs, x)

    def profile_dx(x):
        k = np.clip((np.asarray(x) / space.h).astype(int), 0, space.n_elems - 1)
        return slopes[k]

    return SigmaSpec(
        x0=profile,
        x0_dx=profile_dx,
        profile=profile,
        profile_dx=profile_dx,
        time_factor=lambda t: np.exp(-t),
        scale=scale,
    )


# ---------------------------------------------------------------- mode ODE


def test_terminal_condition_is_exact():
    space = build_fem_space(16)
    for alpha in (0.0, 0.37, 1.0, 5.0):
        ric = solve_riccati(space, 1.0, alpha, k_fine=64)
        assert_allclose(ric.p[:, -1], alpha, rtol=0, atol=1e-13)
        assert ric.p.shape == (space.dim, 65)
        assert ric.fine_grid.shape == (65,)


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
    p, dp = riccati_mode_values(lams, 1.0, 1.0, t, derivative=True)
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
        ric = solve_riccati(space, 1.0, 1.0, k_fine=k_fine)
        p1 = ric.p_half[0]
        dt = 1.0 / k_fine
        f = lambda p: 2 * lam1 * p - p - 1 + p * p
        res = np.abs(p1[2::2] - p1[:-1:2] - dt * f(p1[1::2]))
        if t_mask is not None:
            res = res[t_mask(ric.fine_grid[:-1])]
        return res.max()

    assert worst_residual(16384) < 1e-8
    assert worst_residual(1024, t_mask=lambda t: t < 0.5) < 1e-8


def test_bounds_and_monotonicity_in_lambda():
    space = build_fem_space(64)
    ric = solve_riccati(space, 1.0, 1.0, k_fine=256)
    r_plus, _, _ = _stationary_roots(space.eigvals)
    assert ric.p_half.min() >= 0.0
    cap = np.maximum(ric.alpha, r_plus)
    assert (ric.p_half <= cap[:, None] + 1e-12).all()
    # larger lambda gives pointwise smaller p (comparison principle)
    assert (np.diff(ric.p_half, axis=0) <= 1e-12).all()


def test_max_p_non_increasing_under_mesh_refinement():
    maxima = []
    for n in (8, 16, 32, 64):
        ric = solve_riccati(build_fem_space(n), 1.0, 1.0, k_fine=128)
        maxima.append(ric.p_half.max())
    assert all(b <= a + 1e-12 for a, b in zip(maxima, maxima[1:]))


def test_solve_riccati_validates_input():
    space = build_fem_space(4)
    with pytest.raises(ValueError):
        solve_riccati(space, 1.0, 1.0, k_fine=0)
    with pytest.raises(ValueError):
        solve_riccati(space, -1.0, 1.0)
    with pytest.raises(ValueError):
        solve_riccati(space, 1.0, -0.1)


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
    ric = solve_riccati(space, 1.0, 1.0, k_fine=128)
    ric = solve_phi(space, ric, default_sigma_spec(scale=0.0))
    assert np.abs(ric.phi_half).max() == 0.0
    assert np.abs(ric.value_integral).max() == 0.0


def test_phi_zero_when_p_forced_zero():
    # the source is p * sigma, so zero p kills phi regardless of sigma
    space = build_fem_space(8)
    ric = solve_riccati(space, 1.0, 0.0, k_fine=128)
    zeroed = RiccatiSolution(
        space=space,
        horizon=ric.horizon,
        alpha=0.0,
        k_fine=ric.k_fine,
        lams=ric.lams,
        t_half=ric.t_half,
        p_half=np.zeros_like(ric.p_half),
    )
    out = solve_phi(space, zeroed, default_sigma_spec())
    assert np.abs(out.phi_half).max() <= 1e-15


def test_phi_single_mode_against_euler_oracle():
    space = build_fem_space(4)
    mode = 0
    spec = eigmode_sigma_spec(space, mode)
    ric = solve_phi(space, solve_riccati(space, 1.0, 1.0, k_fine=1024), spec)
    # the noise profile is exactly the eigenvector, so only one mode is excited
    others = np.delete(np.arange(space.dim), mode)
    assert np.abs(ric.phi_half[others]).max() < 1e-12
    ref = euler_phi_reference(
        space.eigvals[mode], 1.0, 1.0, lambda t: np.exp(-t), 1_000_000
    )
    assert abs(ric.phi_half[mode, 0] - ref) < 2e-6


def test_phi_sign_coupling_and_value_integral_decreasing():
    # phi_i tracks p_i sigma_i / (lam_i + p_i), so it carries sigma's sign
    # mode by mode (the eigenvector orientation is arbitrary); the running
    # cost-to-go from the zero state decreases towards zero at T
    space = build_fem_space(16)
    ric = solve_phi(space, solve_riccati(space, 1.0, 1.0), default_sigma_spec())
    assert (ric.phi_half * ric.sigma_eig_half).min() >= -1e-14
    assert ric.value_integral[-1] == 0.0
    assert (np.diff(ric.value_integral) <= 1e-15).all()
    assert ric.value_integral[0] > 0


def test_phi_grid_mismatch_rejected():
    space = build_fem_space(4)
    ric = solve_riccati(space, 1.0, 1.0, k_fine=64)
    with pytest.raises(ValueError):
        solve_phi(space, ric, default_sigma_spec(), k_fine=128)


# ------------------------------------------------------ feedback and value


def test_feedback_trivial_cases():
    space = build_fem_space(8)
    ric = solve_phi(space, solve_riccati(space, 1.0, 0.0), default_sigma_spec(scale=0.0))
    x = np.zeros(space.dim)
    assert_allclose(feedback_control(ric, x, 0.3), 0.0, atol=1e-15)
    # alpha = 0: p(T) = 0 and phi(T) = 0, so the feedback vanishes at T
    rng = np.random.default_rng(0)
    x = rng.standard_normal(space.dim)
    assert np.abs(feedback_control(ric, x, 1.0)).max() < 1e-12


def test_feedback_rejects_time_outside_horizon():
    space = build_fem_space(4)
    ric = solve_riccati(space, 1.0, 1.0)
    with pytest.raises(ValueError):
        feedback_control(ric, np.zeros(space.dim), 1.5)
    with pytest.raises(ValueError):
        feedback_control(ric, np.zeros(space.dim), -0.2)


def test_feedback_batch_matches_single():
    space = build_fem_space(8)
    ric = solve_phi(space, solve_riccati(space, 1.0, 1.0), default_sigma_spec())
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, space.dim))
    batch = feedback_control(ric, X, 0.4)
    for i in range(5):
        assert_allclose(batch[i], feedback_control(ric, X[i], 0.4), atol=1e-13)


def test_single_mode_feedback_against_dense_oracle():
    # d = 1: u = -p_1(t) x_1 - phi_1(t) with p_1 from the dense integrator
    space = build_fem_space(2)
    t_nodes, P = solve_riccati_dense(space, 1.0, 1.0, k_fine=4096)
    ric = solve_phi(space, solve_riccati(space, 1.0, 1.0, k_fine=4096), default_sigma_spec())
    x = np.array([0.8])
    for k in (0, 1000, 2500, 4096):
        t = t_nodes[k]
        u = feedback_control(ric, x, t)
        u_ref = -P[k, 0, 0] * x - ric.phi_at(t)
        assert_allclose(u, u_ref, atol=2e-9)


def test_value_function_requires_phi():
    space = build_fem_space(4)
    ric = solve_riccati(space, 1.0, 1.0)
    with pytest.raises(ValueError):
        value_function(ric, np.zeros(space.dim))


def test_value_function_trivial_zero():
    space = build_fem_space(8)
    ric = solve_phi(space, solve_riccati(space, 1.0, 1.0), default_sigma_spec(scale=0.0))
    assert value_function(ric, np.zeros(space.dim)) == 0.0


def test_value_function_small_horizon_taylor():
    # alpha = 0, T -> 0: V ~ (T/2) ||x0||^2
    space = build_fem_space(8)
    T = 1e-3
    grid = make_time_grid(T, 2)
    data = make_problem(space, grid, alpha=0.0)
    ric = solve_phi(space, solve_riccati(space, T, 0.0, k_fine=256), data.sigma_spec)
    v = value_function(ric, data.x0)
    lead = 0.5 * T * l2_norm(space, data.x0) ** 2
    assert abs(v - lead) < 0.03 * lead


# ------------------------------------------------------------ dense oracle


def test_dense_oracle_agrees_with_mode_solver():
    # cross-check on d in {1, 3, 7}; the oracle's own RK4 truncation error
    # in the terminal layer is the binding constraint, so the step count
    # grows with the stiffest eigenvalue
    for n_elems, k_fine in ((2, 32768), (4, 32768), (8, 65536)):
        space = build_fem_space(n_elems)
        t_nodes, P = solve_riccati_dense(space, 1.0, 1.0, k_fine=k_fine)
        p_ref = riccati_mode_values(space.eigvals, 1.0, 1.0, t_nodes)
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
    assert np.abs(space.mass @ op - op.T @ space.mass).max() < 1e-10
    assert_allclose(dense_to_nodal(space, P[-1]), np.eye(space.dim), atol=1e-12)


# ----------------------------------------------------------------- moments


def test_moments_trivial_zero_data():
    space = build_fem_space(6)
    grid = make_time_grid(1.0, 4)
    spec = default_sigma_spec(scale=0.0)
    zero_spec = SigmaSpec(
        x0=lambda x: 0.0 * x,
        x0_dx=lambda x: 0.0 * x,
        profile=spec.profile,
        profile_dx=spec.profile_dx,
        time_factor=spec.time_factor,
        scale=0.0,
    )
    data = make_problem(space, grid, alpha=1.0, sigma_spec=zero_spec)
    ric = solve_phi(space, solve_riccati(space, 1.0, 1.0, k_fine=128), zero_spec)
    traj = closed_loop_moments(space, ric, data)
    assert np.abs(traj[0].m).max() == 0.0
    assert max(np.abs(ms.S).max() for ms in traj) <= 1e-15
    assert cost_from_moments(space, ric, data) <= 1e-15


def test_moments_zero_feedback_closed_form():
    # with p and phi forced to zero and sigma = 0 the second moment solves
    # S_ii' = (1 - 2 lam_i) S_ii
    space = build_fem_space(4)
    grid = make_time_grid(1.0, 4)
    data = make_problem(space, grid, sigma_spec=default_sigma_spec(scale=0.0))
    base = solve_riccati(space, 1.0, 0.0, k_fine=1024)
    zeroed = RiccatiSolution(
        space=space,
        horizon=1.0,
        alpha=0.0,
        k_fine=base.k_fine,
        lams=base.lams,
        t_half=base.t_half,
        p_half=np.zeros_like(base.p_half),
        phi_half=np.zeros_like(base.p_half),
        sigma_eig_half=np.zeros_like(base.p_half),
        value_integral=np.zeros(base.k_fine + 1),
    )
    traj = closed_loop_moments(space, zeroed, data)
    m0 = space.to_eigen(data.x0)
    t = zeroed.fine_grid
    for i in range(space.dim):
        ref = m0[i] ** 2 * np.exp((1.0 - 2.0 * space.eigvals[i]) * t)
        got = np.array([ms.S[i, i] for ms in traj])
        keep = ref > 1e-10 * ref[0]
        assert_allclose(got[keep], ref[keep], rtol=2e-3)


def test_moments_are_symmetric_with_psd_covariance():
    space = build_fem_space(8)
    grid = make_time_grid(1.0, 4)
    data = make_problem(space, grid, alpha=1.0)
    ric = solve_phi(space, solve_riccati(space, 1.0, 1.0, k_fine=512), data.sigma_spec)
    traj = closed_loop_moments(space, ric, data)
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
        ric = solve_phi(space, solve_riccati(space, horizon, alpha, k_fine=1024), spec)
        v = value_function(ric, data.x0)
        c = cost_from_moments(space, ric, data)
        assert abs(v - c) <= 1e-6 * max(1.0, abs(v)), (alpha, horizon, scale, v, c)


def test_moment_oracle_rejects_additive_noise():
    space = build_fem_space(4)
    grid = make_time_grid(1.0, 4)
    data = make_problem(space, grid, noise="additive")
    ric = solve_phi(space, solve_riccati(space, 1.0, 1.0, k_fine=64), data.sigma_spec)
    with pytest.raises(ValueError):
        cost_from_moments(space, ric, data)
