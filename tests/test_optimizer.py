import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slqheat.forward import (
    SigmaSpec,
    default_sigma_spec,
    make_problem,
    solve_forward,
    zeros_process,
)
from oracles import eval_fem
from slqheat.mesh import build_fem_space
from slqheat.noise import TreeDriver, gaussian_driver, make_time_grid
from slqheat.optimizer import (
    GdConfig,
    control_inner,
    control_norm_sq,
    cost,
    cost_with_stderr,
    direct_solve,
    estimate_operator_norm,
    gradient,
    gradient_descent,
    kappa_bound,
)


def tiny_problem(n_elems=4, n_steps=4, alpha=0.5, horizon=1.0, scale=0.7):
    space = build_fem_space(n_elems)
    grid = make_time_grid(horizon, n_steps)
    data = make_problem(
        space, grid, alpha=alpha, sigma_spec=default_sigma_spec(scale=scale)
    )
    return data, TreeDriver(grid)


def random_control(driver, dim, rng, amp=1.0):
    vals = [
        amp * rng.standard_normal((driver.n_scenarios(n), dim))
        for n in range(driver.grid.n_steps)
    ]
    from slqheat.forward import AdaptedProcess

    return AdaptedProcess(driver, 0, vals)


def sup_diff(u, v):
    return max(
        np.abs(np.asarray(u.at(n)) - np.asarray(v.at(n))).max()
        for n in range(u.start, u.stop + 1)
    )


# -------------------------------------------------------------------- cost


def test_cost_zero_for_zero_data_and_control():
    data, driver = tiny_problem(scale=0.0)
    zero_spec = default_sigma_spec(scale=0.0)
    data = make_problem(
        data.space,
        data.grid,
        alpha=1.0,
        sigma_spec=SigmaSpec(
            x0=lambda x: 0.0 * x,
            x0_dx=lambda x: 0.0 * x,
            profile=zero_spec.profile,
            profile_dx=zero_spec.profile_dx,
            time_factor=zero_spec.time_factor,
            scale=0.0,
        ),
    )
    u = zeros_process(driver, data.space.dim, 0, data.grid.n_steps - 1)
    x = solve_forward(data, driver, u)
    assert cost(data, x, u) == 0.0


def test_cost_single_step_two_leaf_enumeration():
    # d = 1, N = 1, tau = 1, alpha = 0, sigma = 0, U = 0, X0 = [x]:
    # X1 = (1/13)(x + x dW) with dW = +-1, M = [1/3], so
    # J = (1/2) tau E||X1||^2 = (1/2) ((2x/13)^2 / 3) / 2
    x_val = 0.7
    space = build_fem_space(2)

    def hat(s):
        return x_val * eval_fem(space, np.array([1.0]), s)

    def hat_dx(s):
        return np.where(np.asarray(s) < 0.5, 2.0 * x_val, -2.0 * x_val)

    spec = SigmaSpec(
        x0=hat,
        x0_dx=hat_dx,
        profile=hat,
        profile_dx=hat_dx,
        time_factor=lambda t: 1.0,
        scale=0.0,
    )
    grid = make_time_grid(1.0, 1)
    data = make_problem(space, grid, alpha=0.0, sigma_spec=spec)
    assert_allclose(data.x0, [x_val], atol=1e-14)
    driver = TreeDriver(grid)
    u = zeros_process(driver, 1, 0, 0)
    state = solve_forward(data, driver, u)
    expected = 0.5 * ((2.0 * x_val / 13.0) ** 2 * (1.0 / 3.0)) / 2.0
    assert_allclose(cost(data, state, u), expected, rtol=1e-14)


def test_cost_with_stderr_tree_is_exact():
    data, driver = tiny_problem()
    u = zeros_process(driver, data.space.dim, 0, data.grid.n_steps - 1)
    x = solve_forward(data, driver, u)
    value, se = cost_with_stderr(data, x, u)
    assert value == cost(data, x, u)
    assert se == 0.0


def test_cost_with_stderr_ensemble_brackets_tree_value():
    data, tree = tiny_problem()
    u_tree = zeros_process(tree, data.space.dim, 0, data.grid.n_steps - 1)
    exact = cost(data, solve_forward(data, tree, u_tree), u_tree)
    driver = gaussian_driver(data.grid, 4000, seed=11)
    u = zeros_process(driver, data.space.dim, 0, data.grid.n_steps - 1)
    x = solve_forward(data, driver, u)
    value, se = cost_with_stderr(data, x, u)
    assert se > 0
    # zero-control cost has increment moments of order <= 2, so the
    # two-point tree expectation matches the Gaussian one exactly
    assert abs(value - exact) <= 3.5 * se


def test_cost_with_stderr_rejects_single_path():
    data, _ = tiny_problem()
    driver = gaussian_driver(data.grid, 1, seed=11)
    u = zeros_process(driver, data.space.dim, 0, data.grid.n_steps - 1)
    x = solve_forward(data, driver, u)
    with pytest.raises(ValueError, match="at least 2 paths"):
        cost_with_stderr(data, x, u)


# ---------------------------------------------------------------- gradient


def test_gradient_zero_for_zero_data():
    data, driver = tiny_problem(scale=0.0)
    spec = default_sigma_spec(scale=0.0)
    data = make_problem(
        data.space,
        data.grid,
        alpha=0.7,
        sigma_spec=SigmaSpec(
            x0=lambda x: 0.0 * x,
            x0_dx=lambda x: 0.0 * x,
            profile=spec.profile,
            profile_dx=spec.profile_dx,
            time_factor=spec.time_factor,
            scale=0.0,
        ),
    )
    u = zeros_process(driver, data.space.dim, 0, data.grid.n_steps - 1)
    g = gradient(data, driver, u)
    assert sup_diff(g, u) == 0.0


def test_gradient_matches_central_differences():
    data, driver = tiny_problem()
    rng = np.random.default_rng(3)
    u = random_control(driver, data.space.dim, rng, amp=0.5)
    g = gradient(data, driver, u)
    eps = 1e-5

    def j(ctrl):
        return cost(data, solve_forward(data, driver, ctrl), ctrl)

    for _ in range(5):
        v = random_control(driver, data.space.dim, rng)
        fd = (j(u + eps * v) - j(u + (-eps) * v)) / (2.0 * eps)
        pairing = control_inner(data, g, v)
        assert abs(fd - pairing) <= 1e-6 * max(1.0, abs(pairing))


def test_quadratic_lower_bound():
    # J(U+V) - J(U) - <DJ(U), V> = (1/2) <N V, V> >= (1/2) ||V||^2
    data, driver = tiny_problem()
    rng = np.random.default_rng(4)

    def j(ctrl):
        return cost(data, solve_forward(data, driver, ctrl), ctrl)

    for _ in range(5):
        u = random_control(driver, data.space.dim, rng)
        v = random_control(driver, data.space.dim, rng)
        g = gradient(data, driver, u)
        excess = j(u + v) - j(u) - control_inner(data, g, v)
        assert excess >= 0.5 * control_norm_sq(data, v) - 1e-10


# ------------------------------------------------------------- kappa bound


def test_kappa_bound_reference_values():
    assert_allclose(kappa_bound(1.0, 0.0), 1.0 + np.e, rtol=1e-12)
    assert_allclose(kappa_bound(1.0, 1.0), 1.0 + 2.0 * np.e, rtol=1e-12)
    assert abs(kappa_bound(1e-9, 0.0) - 1.0) < 1e-8
    with pytest.raises(ValueError):
        kappa_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        kappa_bound(1.0, -1.0)


@settings(max_examples=25, deadline=None)
@given(
    t=st.floats(0.05, 3.0),
    a1=st.floats(0.0, 5.0),
    a2=st.floats(0.0, 5.0),
)
def test_kappa_bound_monotone_in_alpha(t, a1, a2):
    lo, hi = sorted((a1, a2))
    assert kappa_bound(t, lo) <= kappa_bound(t, hi) + 1e-12
    assert kappa_bound(t, lo) >= 1.0


# ------------------------------------------------------------ direct solve


def test_direct_solve_zero_data_returns_zero():
    data, driver = tiny_problem(scale=0.0)
    spec = default_sigma_spec(scale=0.0)
    data = make_problem(
        data.space,
        data.grid,
        alpha=0.5,
        sigma_spec=SigmaSpec(
            x0=lambda x: 0.0 * x,
            x0_dx=lambda x: 0.0 * x,
            profile=spec.profile,
            profile_dx=spec.profile_dx,
            time_factor=spec.time_factor,
            scale=0.0,
        ),
    )
    u = direct_solve(data, driver)
    assert max(np.abs(u.at(n)).max() for n in range(data.grid.n_steps)) == 0.0


def test_direct_solve_requires_tree():
    data, _ = tiny_problem()
    driver = gaussian_driver(data.grid, 16, seed=0)
    with pytest.raises(ValueError, match="tree"):
        direct_solve(data, driver)


def test_direct_solve_gradient_vanishes_at_optimum():
    data, driver = tiny_problem()
    u_star = direct_solve(data, driver)
    g = gradient(data, driver, u_star)
    assert np.sqrt(control_norm_sq(data, g)) <= 1e-10


def test_direct_solve_cost_is_minimal_under_perturbations():
    data, driver = tiny_problem()
    u_star = direct_solve(data, driver)
    j_star = cost(data, solve_forward(data, driver, u_star), u_star)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = random_control(driver, data.space.dim, rng)
        u = u_star + 1e-2 * v
        j = cost(data, solve_forward(data, driver, u), u)
        assert j_star <= j


# -------------------------------------------------------- gradient descent


def test_gd_trivial_data_converges_immediately():
    data, driver = tiny_problem(scale=0.0)
    spec = default_sigma_spec(scale=0.0)
    data = make_problem(
        data.space,
        data.grid,
        alpha=0.5,
        sigma_spec=SigmaSpec(
            x0=lambda x: 0.0 * x,
            x0_dx=lambda x: 0.0 * x,
            profile=spec.profile,
            profile_dx=spec.profile_dx,
            time_factor=spec.time_factor,
            scale=0.0,
        ),
    )
    u, trace = gradient_descent(data, driver, GdConfig(max_iters=50))
    assert len(trace.cost) == 1
    assert trace.grad_norm[0] == 0.0
    assert max(np.abs(u.at(n)).max() for n in range(data.grid.n_steps)) == 0.0


def test_gd_converges_to_direct_solution():
    data, driver = tiny_problem()
    u_star = direct_solve(data, driver)
    u, trace = gradient_descent(
        data, driver, GdConfig(max_iters=300, tol_grad=1e-13), reference=u_star
    )
    assert sup_diff(u, u_star) <= 1e-8
    assert trace.grad_norm[-1] <= 1e-13 or len(trace.cost) == 300


def test_gd_monotone_cost_contraction_and_cost_gap():
    data, driver = tiny_problem()
    u_star = direct_solve(data, driver)
    j_star = cost(data, solve_forward(data, driver, u_star), u_star)
    u, trace = gradient_descent(
        data, driver, GdConfig(max_iters=60, tol_grad=0.0), reference=u_star
    )
    costs = np.array(trace.cost)
    assert (np.diff(costs) <= 1e-14).all()
    rho = 1.0 - 1.0 / trace.kappa
    errs = np.array(trace.err_to_ref)
    for e0, e1 in zip(errs[:-1], errs[1:]):
        if e0 > 1e-22:
            assert e1 / e0 <= rho + 1e-10
    # cost gap J(U_l) - J(U*) <= 2 kappa ||U_0 - U*||^2 / l
    for ell in range(1, len(costs)):
        assert costs[ell] - j_star <= 2.0 * trace.kappa * errs[0] / ell + 1e-14
    # recorded squared errors sit below the theory envelope
    env = trace.envelope()
    assert all(e <= b + 1e-14 for e, b in zip(errs, env))


def test_gd_state_error_ratio_bounded_by_control_error():
    data, driver = tiny_problem()
    u_star = direct_solve(data, driver)
    x_star = solve_forward(data, driver, u_star)
    N = data.grid.n_steps

    def state_err(u):
        x = solve_forward(data, driver, u)
        return max(
            float(
                np.mean(
                    ((np.asarray(x.at(n)) - np.asarray(x_star.at(n)))
                     * (np.asarray(x.at(n)) - np.asarray(x_star.at(n)))).sum(axis=1)
                )
            )
            for n in range(1, N + 1)
        )

    errs, ctrl_errs = [], []
    for ell in range(1, 9):
        u, trace = gradient_descent(
            data, driver, GdConfig(max_iters=ell, tol_grad=0.0), reference=u_star
        )
        errs.append(state_err(u))
        ctrl_errs.append(control_norm_sq(data, u - u_star))
    rho = 1.0 - 1.0 / kappa_bound(1.0, 0.5)
    # ratio-bounded: fit C on the first iterate, freeze, check the rest
    C = 2.0 * errs[0] / rho
    for ell, e in enumerate(errs, start=1):
        assert e <= C * rho**ell


def test_gd_rejects_low_kappa_without_flag():
    data, driver = tiny_problem()
    with pytest.raises(ValueError, match="allow_low_kappa"):
        gradient_descent(data, driver, GdConfig(kappa=1.5))


def test_gd_warns_on_divergence():
    data, driver = tiny_problem()
    cfg = GdConfig(kappa=0.4, max_iters=60, tol_grad=0.0, allow_low_kappa=True)
    with pytest.warns(RuntimeWarning, match="kappa"):
        gradient_descent(data, driver, cfg)


def test_gd_ensemble_runs_and_reduces_gradient():
    data, _ = tiny_problem()
    driver = gaussian_driver(data.grid, 300, seed=7)
    u, trace = gradient_descent(data, driver, GdConfig(max_iters=25))
    assert trace.grad_norm[-1] < trace.grad_norm[0]
    assert (np.diff(np.array(trace.cost)) <= 1e-12).all()


def test_estimated_norm_tightens_kappa():
    data, driver = tiny_problem()
    est_norm = estimate_operator_norm(data, driver, n_iters=40, seed=1)
    bound = kappa_bound(data.grid.horizon, data.alpha)
    assert 1.0 <= est_norm <= bound * (1 + 1e-9)
    u_star = direct_solve(data, driver)
    kappa = est_norm * 1.01
    u, trace = gradient_descent(
        data,
        driver,
        GdConfig(kappa=kappa, max_iters=200, tol_grad=1e-12, allow_low_kappa=True),
        reference=u_star,
    )
    assert sup_diff(u, u_star) <= 1e-7
    # tighter kappa contracts at least as fast as the bound would
    assert len(trace.cost) <= 200
