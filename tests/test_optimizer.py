import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slqheat.forward import (
    AdaptedProcess,
    SigmaSpec,
    default_sigma_spec,
    make_problem,
    solve_forward,
    zeros_process,
)
from oracles import add, direct_solve, estimate_operator_norm, gradient, n_scenarios, process
from slqheat import optimizer
from slqheat.mesh import build_fem_space
from slqheat.noise import TreeDriver, gaussian_driver, make_time_grid
from slqheat.optimizer import (
    control_inner,
    control_norm_sq,
    cost,
    cost_with_stderr,
    gradient_descent,
    kappa_bound,
)
from slqheat.riccati import discrete_feedback


def tiny_problem(n_elems=4, n_steps=4, alpha=0.5, horizon=1.0, scale=0.7):
    space = build_fem_space(n_elems)
    grid = make_time_grid(horizon, n_steps)
    data = make_problem(
        space, grid, alpha=alpha, sigma_spec=default_sigma_spec(scale=scale)
    )
    return data, TreeDriver(grid)


def random_control(driver, dim, rng, amp=1.0):
    vals = [
        amp * rng.standard_normal((n_scenarios(driver, n), dim))
        for n in range(driver.grid.n_steps)
    ]
    return process(driver, vals)


def feedback_solve(data, driver):
    """The discrete optimum as the realized control of the discrete Riccati feedback."""
    return solve_forward(data, driver, discrete_feedback(data))[1]


# the two routes to the exact discrete optimum: the conjugate-gradient oracle
# and the library's backward recursion
SOLVERS = {"cg": direct_solve, "recursion": feedback_solve}


def sup_diff(u, v):
    return max(
        np.abs(np.asarray(u.at(n)) - np.asarray(v.at(n))).max()
        for n in range(len(u.values))
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
            x0_dx=lambda x: 0.0 * x,
            profile_dx=zero_spec.profile_dx,
            time_factor=zero_spec.time_factor,
            scale=0.0,
        ),
    )
    u = zeros_process(driver, data.space.dim, data.grid.n_steps - 1)
    x = solve_forward(data, driver, u)
    assert cost(data, x, u) == 0.0


def test_cost_single_step_two_leaf_enumeration():
    # d = 1, N = 1, tau = 1, alpha = 0, sigma = 0, U = 0, X0 = [x]:
    # X1 = (1/13)(x + x dW) with dW = +-1, M = [1/3], so
    # J = (1/2) tau E||X1||^2 = (1/2) ((2x/13)^2 / 3) / 2
    x_val = 0.7
    space = build_fem_space(2)

    def hat_dx(s):
        return np.where(np.asarray(s) < 0.5, 2.0 * x_val, -2.0 * x_val)

    spec = SigmaSpec(
        x0_dx=hat_dx,
        profile_dx=hat_dx,
        time_factor=lambda t: 1.0,
        scale=0.0,
    )
    grid = make_time_grid(1.0, 1)
    data = make_problem(space, grid, alpha=0.0, sigma_spec=spec)
    assert_allclose(space.from_eigen(data.x0), [x_val], atol=1e-14)
    driver = TreeDriver(grid)
    u = zeros_process(driver, 1, 0)
    state = solve_forward(data, driver, u)
    expected = 0.5 * ((2.0 * x_val / 13.0) ** 2 * (1.0 / 3.0)) / 2.0
    assert_allclose(cost(data, state, u), expected, rtol=1e-14)


def test_cost_with_stderr_tree_is_exact():
    data, driver = tiny_problem()
    u = zeros_process(driver, data.space.dim, data.grid.n_steps - 1)
    x = solve_forward(data, driver, u)
    value, se = cost_with_stderr(data, x, u)
    assert value == cost(data, x, u)
    assert se == 0.0


def test_cost_with_stderr_ensemble_brackets_tree_value():
    data, tree = tiny_problem()
    u_tree = zeros_process(tree, data.space.dim, data.grid.n_steps - 1)
    exact = cost(data, solve_forward(data, tree, u_tree), u_tree)
    driver = gaussian_driver(data.grid, 4000, seed=11)
    u = zeros_process(driver, data.space.dim, data.grid.n_steps - 1)
    x = solve_forward(data, driver, u)
    value, se = cost_with_stderr(data, x, u)
    assert se > 0
    # zero-control cost has increment moments of order <= 2, so the
    # two-point tree expectation matches the Gaussian one exactly
    assert abs(value - exact) <= 3.5 * se


def test_cost_with_stderr_rejects_single_path():
    data, _ = tiny_problem()
    driver = gaussian_driver(data.grid, 1, seed=11)
    u = zeros_process(driver, data.space.dim, data.grid.n_steps - 1)
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
            x0_dx=lambda x: 0.0 * x,
            profile_dx=spec.profile_dx,
            time_factor=spec.time_factor,
            scale=0.0,
        ),
    )
    u = zeros_process(driver, data.space.dim, data.grid.n_steps - 1)
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
        fd = (j(add(u, v, eps)) - j(add(u, v, -eps))) / (2.0 * eps)
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
        excess = j(add(u, v)) - j(u) - control_inner(data, g, v)
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
            x0_dx=lambda x: 0.0 * x,
            profile_dx=spec.profile_dx,
            time_factor=spec.time_factor,
            scale=0.0,
        ),
    )
    for name, solve in SOLVERS.items():
        u = solve(data, driver)
        assert max(np.abs(u.at(n)).max() for n in range(data.grid.n_steps)) == 0.0, name


def test_direct_solve_requires_tree():
    data, _ = tiny_problem()
    driver = gaussian_driver(data.grid, 16, seed=0)
    with pytest.raises(ValueError, match="tree"):
        direct_solve(data, driver)


def test_direct_solve_gradient_vanishes_at_optimum():
    data, driver = tiny_problem()
    for name, solve in SOLVERS.items():
        g = gradient(data, driver, solve(data, driver))
        assert np.sqrt(control_norm_sq(data, g)) <= 1e-10, name


def test_direct_solve_cost_is_minimal_under_perturbations():
    data, driver = tiny_problem()
    for name, solve in SOLVERS.items():
        u_star = solve(data, driver)
        j_star = cost(data, solve_forward(data, driver, u_star), u_star)
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = random_control(driver, data.space.dim, rng)
            u = add(u_star, v, 1e-2)
            j = cost(data, solve_forward(data, driver, u), u)
            assert j_star <= j, name


# -------------------------------------------------------- gradient descent


def test_gd_trivial_data_converges_immediately():
    data, driver = tiny_problem(scale=0.0)
    spec = default_sigma_spec(scale=0.0)
    data = make_problem(
        data.space,
        data.grid,
        alpha=0.5,
        sigma_spec=SigmaSpec(
            x0_dx=lambda x: 0.0 * x,
            profile_dx=spec.profile_dx,
            time_factor=spec.time_factor,
            scale=0.0,
        ),
    )
    u, trace = gradient_descent(data, driver, 50, tol_grad=1e-10)
    assert len(trace.cost) == 1
    assert trace.grad_norm[0] == 0.0
    assert max(np.abs(u.at(n)).max() for n in range(data.grid.n_steps)) == 0.0


def test_gd_converges_to_direct_solution():
    data, driver = tiny_problem()
    u_star = direct_solve(data, driver)
    u, trace = gradient_descent(
        data, driver, 300, tol_grad=1e-13, reference=u_star
    )
    assert sup_diff(u, u_star) <= 1e-8
    assert trace.grad_norm[-1] <= 1e-13 or len(trace.cost) == 300


def test_gd_monotone_cost_contraction_and_cost_gap():
    data, driver = tiny_problem()
    u_star = direct_solve(data, driver)
    j_star = cost(data, solve_forward(data, driver, u_star), u_star)
    u, trace = gradient_descent(
        data, driver, 60, tol_grad=0.0, reference=u_star
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
            data, driver, ell, tol_grad=0.0, reference=u_star
        )
        errs.append(state_err(u))
        ctrl_errs.append(control_norm_sq(data, u - u_star))
    rho = 1.0 - 1.0 / kappa_bound(1.0, 0.5)
    # ratio-bounded: fit C on the first iterate, freeze, check the rest
    C = 2.0 * errs[0] / rho
    for ell, e in enumerate(errs, start=1):
        assert e <= C * rho**ell


def test_gd_uses_given_kappa_and_rejects_nonpositive():
    # a kappa below kappa_bound is used as given; only kappa <= 0 is refused
    data, driver = tiny_problem()
    assert 1.5 < kappa_bound(data.grid.horizon, data.alpha)
    _, trace = gradient_descent(data, driver, 2, kappa=1.5)
    assert trace.kappa == 1.5 and len(trace.cost) == 2
    for kappa in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            gradient_descent(data, driver, 2, kappa=kappa)


def test_gd_rejects_a_negative_gradient_tolerance():
    # no gradient norm is below a negative tolerance, so the descent could only
    # run out of iterations; a zero tolerance stops only at an exact optimum
    data, driver = tiny_problem()
    with pytest.raises(ValueError, match="tol_grad must be nonnegative"):
        gradient_descent(data, driver, 2, tol_grad=-1.0)
    _, trace = gradient_descent(data, driver, 2, tol_grad=0.0)
    assert trace.stop == "max_iters" and len(trace.cost) == 2


def test_gd_warns_on_divergence():
    data, driver = tiny_problem()
    with pytest.warns(RuntimeWarning, match="kappa"):
        gradient_descent(data, driver, 60, kappa=0.4, tol_grad=0.0)


@pytest.mark.parametrize(
    "costs, warns",
    [
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], True),  # five consecutive macroscopic increases
        ([1.0, 2.0, 3.0, 4.0, 5.0], False),  # four
        ([1.0, 2.0, 3.0, 0.5, 2.0, 3.0, 4.0, 5.0], False),  # a drop restarts the count
        ([1.0, 1.001, 1.002, 1.003, 1.004, 1.005], False),  # within 1 % of the best cost
    ],
)
def test_gd_divergence_warning_needs_five_macroscopic_increases(monkeypatch, costs, warns):
    scripted = iter(costs)
    monkeypatch.setattr(optimizer, "cost", lambda data, state, u: next(scripted))
    data, driver = tiny_problem()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, trace = gradient_descent(data, driver, len(costs))
    assert trace.cost == costs
    assert [w.category for w in caught] == ([RuntimeWarning] if warns else [])


def test_gd_ensemble_runs_and_reduces_gradient():
    data, _ = tiny_problem()
    driver = gaussian_driver(data.grid, 300, seed=7)
    u, trace = gradient_descent(data, driver, 25)
    assert trace.grad_norm[-1] < trace.grad_norm[0]
    assert (np.diff(np.array(trace.cost)) <= 1e-12).all()


def test_gd_with_regression_approaches_discrete_optimum_on_paths():
    # GD with regression conditioning converges to its own fixed point, which
    # differs from the exact discrete optimum (the recursion's feedback run on
    # the same paths) by the regression error; that gap shrinks with the
    # number of paths.  At this seed it reads 16.0 % at 250 paths and 7.5 %
    # at 1,000 (seeds 1-8 read 6.3-9.4 % at 1,000 paths); the 12 % band
    # fails if the regression stops converging with paths.
    space = build_fem_space(8)
    grid = make_time_grid(1.0, 16)
    data = make_problem(space, grid, alpha=1.0, sigma_spec=default_sigma_spec(scale=2.0))
    fb = discrete_feedback(data)
    gaps = []
    for n_paths in (250, 1000):
        driver = gaussian_driver(grid, n_paths, seed=20250801)
        u, _ = gradient_descent(data, driver, 60)
        _, u_opt = solve_forward(data, driver, fb)
        gaps.append(np.sqrt(control_norm_sq(data, u - u_opt) / control_norm_sq(data, u_opt)))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 0.12


def test_estimated_norm_tightens_kappa():
    data, driver = tiny_problem()
    est_norm = estimate_operator_norm(data, driver, n_iters=40, seed=1)
    bound = kappa_bound(data.grid.horizon, data.alpha)
    assert 1.0 <= est_norm <= bound * (1 + 1e-9)
    u_star = direct_solve(data, driver)
    kappa = est_norm * 1.01
    u, trace = gradient_descent(
        data, driver, 200, kappa=kappa, tol_grad=1e-12, reference=u_star
    )
    assert sup_diff(u, u_star) <= 1e-7
    # tighter kappa contracts at least as fast as the bound would
    assert len(trace.cost) <= 200


def test_gd_builds_its_processes_before_the_loop(monkeypatch):
    # the descent allocates u, the state and u - reference once: a process
    # built per iteration (a head view, a difference) would grow the count
    data, driver = tiny_problem(n_steps=8)
    reference = random_control(driver, data.space.dim, np.random.default_rng(4))
    built = []
    post_init = AdaptedProcess.__post_init__
    monkeypatch.setattr(AdaptedProcess, "__post_init__", lambda self: built.append(post_init(self)))
    counts = []
    for iters in (2, 4):
        built.clear()
        gradient_descent(data, driver, iters, reference=reference)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0
