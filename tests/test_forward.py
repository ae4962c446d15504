import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from slqheat.adjoint import apply_L_adjoint, apply_Lhat_adjoint
from slqheat.forward import (
    AdaptedProcess,
    SigmaSpec,
    a0_apply,
    apply_Gamma,
    apply_L,
    compute_f,
    default_sigma_spec,
    make_problem,
    solve_forward,
    zeros_process,
)
from slqheat.mesh import build_fem_space, ritz_project
from slqheat.noise import TreeDriver, gaussian_driver, make_time_grid, tree_condexp


def small_setup(n_elems=5, n_steps=3, alpha=1.0, noise="linear"):
    space = build_fem_space(n_elems)
    grid = make_time_grid(1.0, n_steps)
    data = make_problem(space, grid, alpha=alpha, noise=noise)
    return space, grid, data


def random_control(driver, dim, seed=0):
    rng = np.random.default_rng(seed)
    N = driver.grid.n_steps
    vals = [rng.standard_normal((driver.n_scenarios(n), dim)) for n in range(N)]
    return AdaptedProcess(driver, 0, vals)


def test_make_problem_projects_data():
    space, grid, data = small_setup(n_elems=16, n_steps=4)
    assert data.sigma.shape == (5, space.dim)
    prof = ritz_project(space, lambda x: np.pi * np.cos(np.pi * x))
    for n, t in enumerate(grid.nodes):
        assert_allclose(data.sigma[n], np.exp(-t) * prof, rtol=1e-12)
    assert_allclose(data.x0, prof, rtol=1e-12)


def test_with_grid_matches_make_problem_when_time_factor_vanishes_at_zero():
    # sigma(t, x) = t sin(pi x) is zero at t_0, so the profile cannot be
    # recovered from the first sigma slice
    space = build_fem_space(8)
    spec = SigmaSpec(
        x0=lambda x: np.sin(np.pi * x),
        x0_dx=lambda x: np.pi * np.cos(np.pi * x),
        profile=lambda x: np.sin(np.pi * x),
        profile_dx=lambda x: np.pi * np.cos(np.pi * x),
        time_factor=lambda t: t,
    )
    fine = make_problem(space, make_time_grid(1.0, 8), sigma_spec=spec)
    coarse_grid = make_time_grid(1.0, 4)
    coarse = make_problem(space, coarse_grid, sigma_spec=spec)
    resampled = fine.with_grid(coarse_grid)
    assert resampled.grid is coarse_grid
    assert np.isfinite(resampled.sigma).all()
    assert_allclose(resampled.sigma, coarse.sigma, rtol=0, atol=1e-14)


def test_make_problem_validates_input():
    space = build_fem_space(4)
    grid = make_time_grid(1.0, 2)
    with pytest.raises(ValueError):
        make_problem(space, grid, alpha=-0.5)
    with pytest.raises(ValueError):
        make_problem(space, grid, noise="colored")
    with pytest.raises(ValueError):
        make_problem(space, grid, projection="nodal")


def test_l2_projection_mode_differs_from_ritz():
    space = build_fem_space(8)
    grid = make_time_grid(1.0, 2)
    ritz = make_problem(space, grid, projection="ritz")
    l2 = make_problem(space, grid, projection="l2")
    assert np.abs(ritz.x0 - l2.x0).max() > 1e-8
    # both are second-order accurate samplings of sin(pi x)
    assert np.abs(ritz.x0 - np.sin(np.pi * space.nodes)).max() < 5e-2


def test_a0_apply_matches_dense():
    space = build_fem_space(7)
    tau = 0.2
    rng = np.random.default_rng(0)
    v = rng.standard_normal((3, space.dim))
    step = space.from_eigen(a0_apply(space, tau, space.to_eigen(v)))
    assert_allclose(step, v @ oracles.dense_a0(space, tau).T, atol=1e-12)


def test_state_slices_follow_tree_levels():
    space, grid, data = small_setup()
    drv = TreeDriver(grid)
    X = solve_forward(data, drv)
    assert X.start == 0 and X.stop == 3
    for n in range(4):
        assert X.at(n).shape == (2**n, space.dim)


def test_adapted_process_indexing_and_arithmetic():
    space, grid, data = small_setup()
    drv = TreeDriver(grid)
    U = random_control(drv, space.dim, seed=5)
    V = random_control(drv, space.dim, seed=6)
    W = U + V
    assert_allclose(W.at(2), U.at(2) + V.at(2))
    D = (2.0 * U) - V
    assert_allclose(D.at(1), 2 * U.at(1) - V.at(1))
    C = U.copy()
    C.axpy(-0.5, V)
    assert_allclose(C.at(0), U.at(0) - 0.5 * V.at(0))
    with pytest.raises(IndexError):
        U.at(3)  # controls stop at N-1


def test_forward_matches_literal_products_on_tree():
    space, grid, data = small_setup()
    drv = TreeDriver(grid)
    U = random_control(drv, space.dim, seed=1)

    gam = oracles.nodal(space, apply_Gamma(data, drv))
    lu = oracles.nodal(space, apply_L(data, drv, U))
    f = oracles.nodal(space, compute_f(data, drv))
    gam_ref = oracles.literal_gamma(space, drv, data.x0)
    lu_ref = oracles.literal_l(space, drv, oracles.nodal(space, U))
    f_ref = oracles.literal_f(space, drv, data.sigma)
    for n in range(grid.n_steps + 1):
        assert_allclose(drv.to_pathwise(gam.at(n), n), gam_ref[n], atol=1e-12)
        assert_allclose(drv.to_pathwise(lu.at(n), n), lu_ref[n], atol=1e-12)
        assert_allclose(drv.to_pathwise(f.at(n), n), f_ref[n], atol=1e-12)


def test_forward_superposition_tree_and_ensemble():
    space, grid, data = small_setup(n_elems=9, n_steps=5)
    for drv in (TreeDriver(grid), gaussian_driver(grid, 40, seed=7)):
        U = random_control(drv, space.dim, seed=2)
        X = solve_forward(data, drv, U)
        parts = apply_Gamma(data, drv) + apply_L(data, drv, U) + compute_f(data, drv)
        for n in range(grid.n_steps + 1):
            assert_allclose(X.at(n), parts.at(n), atol=1e-12)


def test_conditional_mean_follows_deterministic_recursion():
    # E X_{n+1} = A0 (E X_n + tau u_n) for deterministic control
    space, grid, data = small_setup(n_elems=6, n_steps=4)
    drv = TreeDriver(grid)
    rng = np.random.default_rng(3)
    u_det = rng.standard_normal((grid.n_steps, space.dim))
    U = AdaptedProcess(
        drv, 0, [np.broadcast_to(u_det[n], (2**n, space.dim)).copy() for n in range(grid.n_steps)]
    )
    X = oracles.nodal(space, solve_forward(data, drv, U))
    A0 = oracles.dense_a0(space, grid.tau)
    m = data.x0.copy()
    for n in range(grid.n_steps):
        m = A0 @ (m + grid.tau * space.from_eigen(u_det[n]))
        assert_allclose(tree_condexp(X.at(n + 1), n + 1, 0)[0], m, atol=1e-12)


def test_second_moment_of_eigenmode_is_exact_on_tree():
    # for x0 = v_i, U = 0, sigma = 0:  E ||X_n||_M^2 = ((1 + tau) / (1 + tau lam_i)^2)^n
    space, grid, _ = small_setup(n_elems=8, n_steps=6)
    drv = TreeDriver(grid)
    tau = grid.tau
    i = 2
    data = make_problem(space, grid, sigma_spec=default_sigma_spec(scale=0.0))
    X = apply_Gamma(data, drv, x0=space.eigvecs[:, i])
    lam = space.eigvals[i]
    for n in range(grid.n_steps + 1):
        sq = (X.at(n) * X.at(n)).sum(axis=1)
        expected = ((1 + tau) / (1 + tau * lam) ** 2) ** n
        assert_allclose(tree_condexp(sq, n, 0)[0], expected, rtol=1e-12)


def test_feedback_control_is_sampled_at_left_nodes():
    space, grid, data = small_setup()
    drv = TreeDriver(grid)
    seen = []

    def feedback(t, x):
        seen.append(t)
        return -0.1 * x

    X, U = solve_forward(data, drv, feedback, return_control=True)
    assert_allclose(seen, grid.nodes[:-1])
    for n in range(grid.n_steps):
        assert_allclose(U.at(n), -0.1 * X.at(n))


def test_additive_noise_gamma_is_deterministic():
    space, grid, data = small_setup(noise="additive")
    drv = TreeDriver(grid)
    gam = oracles.nodal(space, apply_Gamma(data, drv))
    A0 = oracles.dense_a0(space, grid.tau)
    v = data.x0.copy()
    for n in range(grid.n_steps + 1):
        assert_allclose(gam.at(n), np.broadcast_to(v, gam.at(n).shape), atol=1e-13)
        v = A0 @ v
    # superposition still holds
    U = random_control(drv, space.dim, seed=4)
    X = solve_forward(data, drv, U)
    parts = apply_Gamma(data, drv) + apply_L(data, drv, U) + compute_f(data, drv)
    for n in range(grid.n_steps + 1):
        assert_allclose(X.at(n), parts.at(n), atol=1e-12)


def test_l_adjoint_matches_literal_sums():
    space, grid, data = small_setup()
    drv = TreeDriver(grid)
    rng = np.random.default_rng(8)
    xi = AdaptedProcess(
        drv, 1, [rng.standard_normal((2**n, space.dim)) for n in range(1, grid.n_steps + 1)]
    )
    out = apply_L_adjoint(data, drv, xi)
    ref = oracles.literal_l_adjoint(space, drv, oracles.nodal(space, xi))
    assert out.start == 0 and out.stop == grid.n_steps - 1
    for j in range(grid.n_steps):
        assert_allclose(space.from_eigen(out.at(j)), ref[j], atol=1e-12)


def test_lhat_adjoint_matches_literal_sums():
    space, grid, data = small_setup(n_elems=4, n_steps=4)
    drv = TreeDriver(grid)
    rng = np.random.default_rng(9)
    eta = rng.standard_normal((2**grid.n_steps, space.dim))
    out = apply_Lhat_adjoint(data, drv, eta)
    ref = oracles.literal_lhat_adjoint(space, drv, space.from_eigen(eta))
    for j in range(grid.n_steps):
        assert_allclose(space.from_eigen(out.at(j)), ref[j], atol=1e-12)


@pytest.mark.parametrize("noise", ["linear", "additive"])
def test_duality_of_l_and_l_adjoint(noise):
    # <L U, xi>_state = <U, L* xi>_control with both pairings tau-weighted;
    # in eigen coordinates the M-pairing is the euclidean one
    space, grid, data = small_setup(n_elems=6, n_steps=4, noise=noise)
    drv = TreeDriver(grid)
    tau = grid.tau
    rng = np.random.default_rng(10)
    U = random_control(drv, space.dim, seed=11)
    xi = AdaptedProcess(
        drv, 1, [rng.standard_normal((2**n, space.dim)) for n in range(1, grid.n_steps + 1)]
    )
    lu = apply_L(data, drv, U)
    lhs = oracles.pairing_state(
        drv,
        [drv.to_pathwise(lu.at(n), n) for n in range(grid.n_steps + 1)],
        [np.zeros((drv.n_scenarios(grid.n_steps), space.dim))]
        + [drv.to_pathwise(xi.at(n), n) for n in range(1, grid.n_steps + 1)],
        tau,
    )
    lstar = apply_L_adjoint(data, drv, xi)
    rhs = 0.0
    for j in range(grid.n_steps):
        inner = (drv.to_pathwise(U.at(j), j) * drv.to_pathwise(lstar.at(j), j)).sum(axis=1)
        rhs += tau * inner.mean()
    assert_allclose(lhs, rhs, rtol=1e-11)


def test_terminal_duality_of_lhat():
    # E <(L U)(T), eta> = <U, Lhat* eta>_control
    space, grid, data = small_setup(n_elems=6, n_steps=4)
    drv = TreeDriver(grid)
    rng = np.random.default_rng(12)
    U = random_control(drv, space.dim, seed=13)
    eta = rng.standard_normal((2**grid.n_steps, space.dim))
    lu_T = drv.to_pathwise(apply_L(data, drv, U).at(grid.n_steps), grid.n_steps)
    lhs = (lu_T * eta).sum(axis=1).mean()
    lhat = apply_Lhat_adjoint(data, drv, eta)
    rhs = 0.0
    for j in range(grid.n_steps):
        inner = (drv.to_pathwise(U.at(j), j) * drv.to_pathwise(lhat.at(j), j)).sum(axis=1)
        rhs += grid.tau * inner.mean()
    assert_allclose(lhs, rhs, rtol=1e-11)


def test_ensemble_adjoint_requires_estimator():
    space, grid, data = small_setup()
    drv = gaussian_driver(grid, 10, seed=0)
    xi = AdaptedProcess(
        drv, 1, [np.ones((10, space.dim)) for _ in range(grid.n_steps)]
    )
    with pytest.raises(ValueError):
        apply_L_adjoint(data, drv, xi)


def test_zeros_process_shapes():
    _, grid, _ = small_setup()
    drv = TreeDriver(grid)
    Z = zeros_process(drv, 4, 0, grid.n_steps - 1)
    assert Z.at(2).shape == (4, 4)
    assert Z.stop == grid.n_steps - 1


def test_forward_stability_without_forcing():
    # pure diffusion contracts the mean-square norm step by step when sigma = 0
    space, grid, _ = small_setup(n_elems=12, n_steps=8)
    data = make_problem(space, grid, sigma_spec=default_sigma_spec(scale=0.0))
    drv = TreeDriver(grid)
    X = solve_forward(data, drv)
    sq = [
        tree_condexp((X.at(n) * X.at(n)).sum(axis=1), n, 0)[0]
        for n in range(grid.n_steps + 1)
    ]
    # (1 + tau) / (1 + tau lam_1)^2 < 1 for the default data, so decay holds
    assert all(b <= a * (1 + 1e-12) for a, b in zip(sq, sq[1:]))
    assert np.linalg.norm(X.at(0)[0]) <= oracles.l2_norm(space, data.x0) + 1e-12


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
@pytest.mark.parametrize("noise", ["linear", "additive"])
def test_solve_forward_matches_nodal_oracle(kind, noise):
    space, grid, data = small_setup(n_elems=9, n_steps=5, noise=noise)
    drv = TreeDriver(grid) if kind == "tree" else gaussian_driver(grid, 200, seed=3)
    U = random_control(drv, space.dim, seed=4)
    X = solve_forward(data, drv, U)
    ref = oracles.nodal_solve_forward(data, drv, oracles.nodal(space, U))
    for n in range(grid.n_steps + 1):
        assert_allclose(space.from_eigen(X.at(n)), ref.at(n), rtol=0, atol=1e-12)
