import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from slqheat.adjoint import (
    adjoint_gap,
    apply_L_adjoint,
    apply_Lhat_adjoint,
    bsde_residual,
    condexp,
    implicit_euler_bsde,
    k_htau,
    k_htau_sweep,
    regression_condexp,
)
from slqheat.forward import (
    AdaptedProcess,
    a0_apply,
    make_problem,
    solve_forward,
)
from slqheat.mesh import build_fem_space
from slqheat.noise import TreeDriver, gaussian_driver, make_time_grid, tree_condexp


def tree_setup(n_elems=5, n_steps=3, alpha=1.0, noise="linear"):
    space = build_fem_space(n_elems)
    grid = make_time_grid(1.0, n_steps)
    data = make_problem(space, grid, alpha=alpha, noise=noise)
    return space, grid, data, TreeDriver(grid)


def test_k_htau_matches_literal_sums():
    space, grid, data, drv = tree_setup(alpha=0.7)
    X = solve_forward(data, drv)
    Q = k_htau(data, drv, X)
    ref = oracles.literal_k_htau(space, drv, data.alpha, oracles.nodal(space, X))
    assert Q.start == 0 and Q.stop == grid.n_steps - 1
    for n in range(grid.n_steps):
        assert_allclose(space.from_eigen(Q.at(n)), ref[n], atol=1e-12)


@pytest.mark.parametrize("noise", ["linear", "additive"])
def test_k_htau_equals_combination_of_adjoints(noise):
    space, grid, data, drv = tree_setup(n_elems=7, n_steps=4, alpha=0.3, noise=noise)
    X = solve_forward(data, drv)
    Q = k_htau(data, drv, X)
    lstar = apply_L_adjoint(data, drv, X)
    lhat = apply_Lhat_adjoint(data, drv, X.at(grid.n_steps))
    for n in range(grid.n_steps):
        assert_allclose(Q.at(n), -(lstar.at(n) + data.alpha * lhat.at(n)), atol=1e-12)


def test_k_htau_sweep_order_and_values():
    space, grid, data, drv = tree_setup()
    X = solve_forward(data, drv)
    Q = k_htau(data, drv, X)
    seen = [n for n, _ in k_htau_sweep(data, drv, X)]
    assert seen == list(range(grid.n_steps - 1, -1, -1))
    for n, q in k_htau_sweep(data, drv, X):
        assert_allclose(q, Q.at(n), atol=1e-14)


def test_bsde_terminal_condition_and_measurability():
    space, grid, data, drv = tree_setup(n_steps=4, alpha=0.9)
    X = solve_forward(data, drv)
    y0, zbar0 = implicit_euler_bsde(data, drv, X)
    assert_allclose(y0.at(grid.n_steps), -data.alpha * X.at(grid.n_steps), atol=1e-14)
    for n in range(grid.n_steps + 1):
        assert y0.at(n).shape == (2**n, space.dim)
    for n in range(grid.n_steps):
        assert zbar0.at(n).shape == (2**n, space.dim)


def test_bsde_martingale_identity_on_tree():
    space, grid, data, drv = tree_setup(n_elems=6, n_steps=5, alpha=1.0)
    X = solve_forward(data, drv)
    y0, zbar0 = implicit_euler_bsde(data, drv, X)
    assert bsde_residual(data, drv, X, y0, zbar0) <= 1e-10


def test_bsde_slice_recursion_equivalence():
    # Y0(t_n) = A0 E[(1 + dW_{n+1})(Y0(t_{n+1}) - tau X(t_{n+1})) | F_n]
    space, grid, data, drv = tree_setup(n_elems=4, n_steps=4)
    tau = grid.tau
    X = solve_forward(data, drv)
    y0, _ = implicit_euler_bsde(data, drv, X)
    for n in range(grid.n_steps):
        inner = (y0.at(n + 1) - tau * X.at(n + 1)) * (1.0 + drv.increments_at(n + 1))[:, None]
        expected = a0_apply(space, tau, tree_condexp(inner, n + 1, n))
        assert_allclose(y0.at(n), expected, atol=1e-12)


def test_bsde_deterministic_driver_reduction():
    # for a deterministic state process the backward equation degenerates:
    # Zbar0 = 0 and Y0(t_n) = A0 (Y0(t_{n+1}) - tau X(t_{n+1}))
    space, grid, data, drv = tree_setup(n_elems=5, n_steps=4, alpha=0.5)
    rng = np.random.default_rng(0)
    det = rng.standard_normal((grid.n_steps + 1, space.dim))
    X = AdaptedProcess(
        drv, 0, [np.broadcast_to(det[n], (2**n, space.dim)).copy() for n in range(grid.n_steps + 1)]
    )
    y0, zbar0 = implicit_euler_bsde(data, drv, X)
    for n in range(grid.n_steps):
        assert np.abs(zbar0.at(n)).max() <= 1e-12
    y = -data.alpha * det[grid.n_steps]
    for n in range(grid.n_steps - 1, -1, -1):
        y = a0_apply(space, grid.tau, y - grid.tau * det[n + 1])
        assert_allclose(y0.at(n), np.broadcast_to(y, y0.at(n).shape), atol=1e-12)


def test_adjoint_gap_positive_and_shrinking():
    # squared gap ~ C tau, so the norm gap shrinks by ~sqrt(2) per halving;
    # measured with alpha = 0 where the interior slices carry the sup (a
    # terminal-slice smoothing artifact otherwise hides the rate at coarse tau)
    space = build_fem_space(16)
    gaps = {}
    for n_steps in (4, 8):
        grid = make_time_grid(1.0, n_steps)
        data = make_problem(space, grid, alpha=0.0)
        drv = TreeDriver(grid)
        X = solve_forward(data, drv)
        gaps[n_steps] = adjoint_gap(data, drv, X)
    assert gaps[8] > 0
    ratio = gaps[4] / gaps[8]
    assert 1.25 < ratio < 1.7


def test_adjoint_gap_nonzero_with_terminal_weight():
    space = build_fem_space(8)
    grid = make_time_grid(1.0, 6)
    data = make_problem(space, grid, alpha=1.0)
    drv = TreeDriver(grid)
    X = solve_forward(data, drv)
    assert adjoint_gap(data, drv, X) > 1e-8


def test_condexp_is_exact_subtree_average_on_tree():
    space, grid, data, drv = tree_setup()
    vals = np.arange(8.0)[:, None]
    assert_allclose(condexp(data, drv, vals, 3, 1), tree_condexp(vals, 3, 1))
    # data living at an intermediate level condition the same way
    assert_allclose(condexp(data, drv, vals[:4], 2, 0), [[1.5]])


def test_regression_condexp_recovers_affine_targets():
    rng = np.random.default_rng(1)
    F = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
    beta_true = np.array([[1.0, -2.0], [0.5, 0.0], [0.0, 3.0], [2.0, 1.0]])
    Y = F @ beta_true
    beta, pred = regression_condexp(F, Y, ridge=1e-12)
    assert_allclose(beta, beta_true, atol=1e-6)
    assert_allclose(pred, Y, atol=1e-6)


def test_regression_condexp_zero_ridge_rank_deficient():
    F = np.ones((50, 3))  # rank 1
    Y = np.ones(50)
    with pytest.raises(ValueError, match="ridge"):
        regression_condexp(F, Y, ridge=0.0)


def test_regression_estimator_exact_for_affine_functionals():
    # targets that are exactly affine in the features are reproduced
    space = build_fem_space(9)
    grid = make_time_grid(1.0, 6)
    data = make_problem(space, grid)
    drv = gaussian_driver(grid, 300, seed=4)
    X = solve_forward(data, drv)
    n = 3
    coords = X.at(n)[:, :4]
    target = 2.0 + coords @ np.array([1.0, -1.0, 0.5, 2.0]) + 0.25 * drv.brownian(n)
    pred = condexp(data, drv, target[:, None], n, n, X)
    assert_allclose(pred[:, 0], target, atol=1e-6)


def test_regression_estimator_constant_slice_at_time_zero():
    # at t_0 every path coincides, so conditioning returns the plain mean
    space = build_fem_space(5)
    grid = make_time_grid(1.0, 4)
    data = make_problem(space, grid)
    drv = gaussian_driver(grid, 500, seed=5)
    X = solve_forward(data, drv)
    rng = np.random.default_rng(6)
    targets = rng.standard_normal((500, space.dim))
    pred = condexp(data, drv, targets, 0, 0, X)
    assert np.abs(pred - pred[0]).max() < 1e-8
    assert_allclose(pred[0], targets.mean(axis=0), atol=1e-6)


def test_regression_estimator_requires_state():
    space = build_fem_space(5)
    grid = make_time_grid(1.0, 4)
    data = make_problem(space, grid)
    drv = gaussian_driver(grid, 50, seed=7)
    with pytest.raises(ValueError, match="state"):
        condexp(data, drv, np.ones((50, space.dim)), 1, 1)


def test_k_htau_with_regression_close_to_exact_mean_at_time_zero():
    # on the ensemble the time-0 kernel slice is a plain average whose
    # statistical error is the only gap to the tree value at matched tau
    space = build_fem_space(6)
    grid = make_time_grid(1.0, 6)
    data = make_problem(space, grid, alpha=0.5)
    tree = TreeDriver(grid)
    Xt = solve_forward(data, tree)
    q_tree = k_htau(data, tree, Xt).at(0)[0]

    drv = gaussian_driver(grid, 4000, seed=8)
    X = solve_forward(data, drv)
    q_mc = k_htau(data, drv, X).at(0)
    # the slice is constant across paths (features are degenerate at t_0)
    assert np.abs(q_mc - q_mc[0]).max() < 1e-8
    err = np.abs(q_mc[0] - q_tree).max()
    assert err < 0.02, f"MC kernel at t=0 off by {err}"


def ensemble_setup(alpha=0.8, noise="linear"):
    space = build_fem_space(9)
    grid = make_time_grid(1.0, 6)
    data = make_problem(space, grid, alpha=alpha, noise=noise)
    drv = gaussian_driver(grid, 200, seed=11)
    return space, grid, data, drv, solve_forward(data, drv)


@pytest.mark.parametrize("noise", ["linear", "additive"])
def test_k_htau_on_ensemble_matches_regression_oracle(noise):
    space, grid, data, drv, X = ensemble_setup(noise=noise)
    Q = k_htau(data, drv, X)
    ref = oracles.nodal_k_htau(data, drv, oracles.nodal_solve_forward(data, drv))
    for n in range(grid.n_steps):
        assert_allclose(space.from_eigen(Q.at(n)), ref[n], rtol=0, atol=1e-12)


@pytest.mark.parametrize("noise", ["linear", "additive"])
def test_k_htau_on_tree_matches_nodal_oracle(noise):
    space, grid, data, drv = tree_setup(n_elems=9, n_steps=6, alpha=0.8, noise=noise)
    Q = k_htau(data, drv, solve_forward(data, drv))
    ref = oracles.nodal_k_htau(data, drv, oracles.nodal_solve_forward(data, drv))
    for n in range(grid.n_steps):
        assert_allclose(space.from_eigen(Q.at(n)), ref[n], rtol=0, atol=1e-12)


def assert_bsde_matches_nodal_oracle(space, data, drv, X):
    """implicit_euler_bsde and bsde_residual against the nodal sweep oracle."""
    N = data.grid.n_steps
    y0, zbar0 = implicit_euler_bsde(data, drv, X)
    X_nodal = oracles.nodal_solve_forward(data, drv)
    y_ref, z_ref = oracles.nodal_implicit_euler_bsde(data, drv, X_nodal)
    for n in range(N + 1):
        assert_allclose(space.from_eigen(y0.at(n)), y_ref[n], rtol=0, atol=1e-12)
    for n in range(N):
        assert_allclose(space.from_eigen(zbar0.at(n)), z_ref[n], rtol=0, atol=1e-12)
    worst = oracles.nodal_bsde_residual(data, drv, X_nodal, y_ref, z_ref)
    assert abs(bsde_residual(data, drv, X, y0, zbar0) - worst) <= 1e-12
    return worst


def test_bsde_on_ensemble_matches_regression_oracle():
    space, grid, data, drv, X = ensemble_setup()
    worst = assert_bsde_matches_nodal_oracle(space, data, drv, X)
    assert worst > 0.0  # regression is not exact, so the identity has a defect


@pytest.mark.parametrize(
    "kind, noise", [("tree", "linear"), ("tree", "additive"), ("ensemble", "additive")]
)
def test_bsde_matches_nodal_oracle(kind, noise):
    if kind == "tree":
        space, grid, data, drv = tree_setup(n_elems=9, n_steps=6, alpha=0.8, noise=noise)
        X = solve_forward(data, drv)
    else:
        space, grid, data, drv, X = ensemble_setup(noise=noise)
    assert_bsde_matches_nodal_oracle(space, data, drv, X)
