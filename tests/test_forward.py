import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from slqheat.forward import (
    SigmaSpec,
    default_sigma_spec,
    make_problem,
    solve_forward,
    zeros_process,
)
from slqheat.mesh import build_fem_space, ritz_project
from slqheat.noise import TreeDriver, gaussian_driver, make_time_grid


def small_setup(n_elems=5, n_steps=3, alpha=1.0, noise="linear"):
    space = build_fem_space(n_elems)
    grid = make_time_grid(1.0, n_steps)
    data = make_problem(space, grid, alpha=alpha, noise=noise)
    return space, grid, data


def random_control(driver, dim, seed=0):
    rng = np.random.default_rng(seed)
    N = driver.grid.n_steps
    vals = [rng.standard_normal((oracles.n_scenarios(driver, n), dim)) for n in range(N)]
    return oracles.process(driver, vals)


def test_make_problem_projects_data():
    # the data hold eigen coordinates of the nodal Ritz projections
    space, grid, data = small_setup(n_elems=16, n_steps=4)
    assert data.sigma.shape == (5, space.dim)
    prof = space.from_eigen(ritz_project(space, lambda x: np.pi * np.cos(np.pi * x)))
    for n, t in enumerate(grid.nodes):
        assert_allclose(space.from_eigen(data.sigma[n]), np.exp(-t) * prof, rtol=0, atol=1e-12)
    assert_allclose(space.from_eigen(data.x0), prof, rtol=0, atol=1e-12)


def test_with_grid_matches_make_problem_when_time_factor_vanishes_at_zero():
    # sigma(t, x) = t sin(pi x) is zero at t_0, so the profile cannot be
    # recovered from the first sigma slice
    space = build_fem_space(8)
    spec = SigmaSpec(
        x0_dx=lambda x: np.pi * np.cos(np.pi * x),
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


def test_l2_projection_mode_differs_from_ritz():
    space = build_fem_space(8)
    grid = make_time_grid(1.0, 2)
    ritz = make_problem(space, grid)
    ritz_x0 = space.from_eigen(ritz.x0)
    l2_x0 = oracles.l2_project(space, lambda x: np.sin(np.pi * x))  # the default x0
    assert np.abs(ritz_x0 - l2_x0).max() > 1e-8
    # both are second-order accurate samplings of sin(pi x)
    assert np.abs(ritz_x0 - np.sin(np.pi * space.nodes)).max() < 5e-2


def test_a0_apply_matches_dense():
    space = build_fem_space(7)
    tau = 0.2
    rng = np.random.default_rng(0)
    v = rng.standard_normal((3, space.dim))
    step = space.from_eigen(oracles.a0_apply(space, tau, space.to_eigen(v)))
    assert_allclose(step, v @ oracles.dense_a0(space, tau).T, atol=1e-12)


def test_state_slices_follow_tree_levels():
    space, grid, data = small_setup()
    drv = TreeDriver(grid)
    X = solve_forward(data, drv)
    assert len(X.values) == 4 and X.rows.shape == (15, space.dim)
    for n in range(4):
        assert X.at(n).shape == (2**n, space.dim)


def test_adapted_process_indexing_and_arithmetic():
    space, grid, data = small_setup()
    drv = TreeDriver(grid)
    U = random_control(drv, space.dim, seed=5)
    V = random_control(drv, space.dim, seed=6)
    D = U - V
    assert len(D.values) == 3
    assert_allclose(D.at(1), U.at(1) - V.at(1))
    for n in (3, -1):
        with pytest.raises(IndexError):
            U.at(n)  # controls span 0..N-1


def test_forward_matches_literal_products_on_tree():
    space, grid, data = small_setup()
    drv = TreeDriver(grid)
    U = random_control(drv, space.dim, seed=1)

    # the literal sums number the tree interleaved: compare through the bit reversal
    gam = oracles.nodal(space, oracles.bit_reverse(oracles.apply_Gamma(data, drv)))
    lu = oracles.nodal(space, oracles.bit_reverse(oracles.apply_L(data, drv, U)))
    f = oracles.nodal(space, oracles.bit_reverse(oracles.compute_f(data, drv)))
    gam_ref = oracles.literal_gamma(space, drv, space.from_eigen(data.x0))
    lu_ref = oracles.literal_l(space, drv, oracles.nodal(space, oracles.bit_reverse(U)))
    f_ref = oracles.literal_f(space, drv, space.from_eigen(data.sigma))
    for n in range(grid.n_steps + 1):
        assert_allclose(oracles.pathwise(drv, gam.at(n), n), gam_ref[n], atol=1e-12)
        assert_allclose(oracles.pathwise(drv, lu.at(n), n), lu_ref[n], atol=1e-12)
        assert_allclose(oracles.pathwise(drv, f.at(n), n), f_ref[n], atol=1e-12)


def test_forward_superposition_tree_and_ensemble():
    space, grid, data = small_setup(n_elems=9, n_steps=5)
    for drv in (TreeDriver(grid), gaussian_driver(grid, 40, seed=7)):
        U = random_control(drv, space.dim, seed=2)
        X = solve_forward(data, drv, U)
        gam, f = oracles.apply_Gamma(data, drv), oracles.compute_f(data, drv)
        parts = oracles.add(oracles.add(gam, oracles.apply_L(data, drv, U)), f)
        for n in range(grid.n_steps + 1):
            assert_allclose(X.at(n), parts.at(n), atol=1e-12)


def test_conditional_mean_follows_deterministic_recursion():
    # E X_{n+1} = A0 (E X_n + tau u_n) for deterministic control
    space, grid, data = small_setup(n_elems=6, n_steps=4)
    drv = TreeDriver(grid)
    rng = np.random.default_rng(3)
    u_det = rng.standard_normal((grid.n_steps, space.dim))
    U = oracles.process(
        drv, [np.broadcast_to(u_det[n], (2**n, space.dim)) for n in range(grid.n_steps)]
    )
    X = oracles.nodal(space, solve_forward(data, drv, U))
    A0 = oracles.dense_a0(space, grid.tau)
    m = space.from_eigen(data.x0)
    for n in range(grid.n_steps):
        m = A0 @ (m + grid.tau * space.from_eigen(u_det[n]))
        assert_allclose(oracles.tree_condexp(X.at(n + 1), n + 1, 0)[0], m, atol=1e-12)


def test_second_moment_of_eigenmode_is_exact_on_tree():
    # for x0 = v_i (eigen coordinates e_i), U = 0, sigma = 0:
    # E ||X_n||_M^2 = ((1 + tau) / (1 + tau lam_i)^2)^n
    space, grid, _ = small_setup(n_elems=8, n_steps=6)
    drv = TreeDriver(grid)
    tau = grid.tau
    i = 2
    data = make_problem(space, grid, sigma_spec=default_sigma_spec(scale=0.0))
    X = oracles.apply_Gamma(data, drv, x0=np.eye(space.dim)[i])
    lam = space.eigvals[i]
    for n in range(grid.n_steps + 1):
        sq = (X.at(n) * X.at(n)).sum(axis=1)
        expected = ((1 + tau) / (1 + tau * lam) ** 2) ** n
        assert_allclose(oracles.tree_condexp(sq, n, 0)[0], expected, rtol=1e-12)


def test_feedback_control_is_sampled_at_left_nodes():
    # a gain pair realizes U_n = -(g_n X_n + h_n) from the state at t_n, and
    # the realized control, stored, drives the same state
    space, grid, data = small_setup()
    drv = TreeDriver(grid)
    rng = np.random.default_rng(8)
    g, h = rng.uniform(0.5, 2.0, (2, grid.n_steps, space.dim))
    X, U = solve_forward(data, drv, (g, h))
    assert len(U.values) == grid.n_steps
    for n in range(grid.n_steps):
        assert np.array_equal(U.at(n), -(g[n] * X.at(n) + h[n]))
    X_stored = solve_forward(data, drv, U)
    for n in range(grid.n_steps + 1):
        assert np.array_equal(X_stored.at(n), X.at(n))


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
@pytest.mark.parametrize("noise", ["linear", "additive"])
def test_feedback_gains_match_nodal_callable_oracle(kind, noise):
    # the nodal oracle applies the same law through a callable on nodal values
    space, grid, data = small_setup(n_elems=9, n_steps=5, noise=noise)
    drv = TreeDriver(grid) if kind == "tree" else gaussian_driver(grid, 200, seed=3)
    rng = np.random.default_rng(9)
    g, h = rng.uniform(0.5, 2.0, (2, grid.n_steps, space.dim))

    def nodal_law(t, x):
        n = int(round(t / grid.tau))
        return space.from_eigen(-(g[n] * space.to_eigen(x) + h[n]))

    X, U = (oracles.bit_reverse(p) for p in solve_forward(data, drv, (g, h)))
    x_ref, u_ref = oracles.nodal_forward(
        data, drv, space.from_eigen(data.x0), nodal_law, space.from_eigen(data.sigma),
        return_control=True,
    )
    for n in range(grid.n_steps):
        assert_allclose(space.from_eigen(U.at(n)), u_ref.at(n), rtol=0, atol=1e-12)
    for n in range(grid.n_steps + 1):
        assert_allclose(space.from_eigen(X.at(n)), x_ref.at(n), rtol=0, atol=1e-12)


def test_solve_forward_rejects_gains_of_another_grid():
    space, grid, data = small_setup(n_steps=4)
    gains = np.ones((2, 8, space.dim))
    with pytest.raises(ValueError, match="gains need shape"):
        solve_forward(data, TreeDriver(grid), gains)


def test_additive_noise_gamma_is_deterministic():
    space, grid, data = small_setup(noise="additive")
    drv = TreeDriver(grid)
    gam = oracles.nodal(space, oracles.apply_Gamma(data, drv))
    A0 = oracles.dense_a0(space, grid.tau)
    v = space.from_eigen(data.x0)
    for n in range(grid.n_steps + 1):
        assert_allclose(gam.at(n), np.broadcast_to(v, gam.at(n).shape), atol=1e-13)
        v = A0 @ v
    # superposition still holds
    U = random_control(drv, space.dim, seed=4)
    X = solve_forward(data, drv, U)
    gam, lu = oracles.apply_Gamma(data, drv), oracles.apply_L(data, drv, U)
    parts = oracles.add(oracles.add(gam, lu), oracles.compute_f(data, drv))
    for n in range(grid.n_steps + 1):
        assert_allclose(X.at(n), parts.at(n), atol=1e-12)


def random_xi(driver, dim, rng):
    """A random tree process over 1..N, with a zero slice 0 that no adjoint reads."""
    N = driver.grid.n_steps
    return oracles.process(
        driver, [np.zeros((1, dim))] + [rng.standard_normal((2**n, dim)) for n in range(1, N + 1)]
    )


def test_l_adjoint_matches_literal_sums():
    space, grid, data = small_setup()
    drv = TreeDriver(grid)
    rng = np.random.default_rng(8)
    xi = random_xi(drv, space.dim, rng)
    out = oracles.bit_reverse(oracles.apply_L_adjoint(data, drv, xi))
    ref = oracles.literal_l_adjoint(space, drv, oracles.nodal(space, oracles.bit_reverse(xi)))
    assert len(out.values) == grid.n_steps
    for j in range(grid.n_steps):
        assert_allclose(space.from_eigen(out.at(j)), ref[j], atol=1e-12)


def test_lhat_adjoint_matches_literal_sums():
    space, grid, data = small_setup(n_elems=4, n_steps=4)
    drv = TreeDriver(grid)
    rng = np.random.default_rng(9)
    eta = rng.standard_normal((2**grid.n_steps, space.dim))
    out = oracles.bit_reverse(oracles.apply_Lhat_adjoint(data, drv, eta))
    eta_ref = oracles.bit_reverse_rows(eta, grid.n_steps)
    ref = oracles.literal_lhat_adjoint(space, drv, space.from_eigen(eta_ref))
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
    xi = random_xi(drv, space.dim, rng)
    lu = oracles.apply_L(data, drv, U)
    lhs = oracles.pairing_state(
        drv,
        [oracles.pathwise(drv, lu.at(n), n) for n in range(grid.n_steps + 1)],
        [np.zeros((oracles.n_scenarios(drv, grid.n_steps), space.dim))]
        + [oracles.pathwise(drv, xi.at(n), n) for n in range(1, grid.n_steps + 1)],
        tau,
    )
    lstar = oracles.apply_L_adjoint(data, drv, xi)
    rhs = 0.0
    for j in range(grid.n_steps):
        u_j, lstar_j = oracles.pathwise(drv, U.at(j), j), oracles.pathwise(drv, lstar.at(j), j)
        inner = (u_j * lstar_j).sum(axis=1)
        rhs += tau * inner.mean()
    assert_allclose(lhs, rhs, rtol=1e-11)


def test_terminal_duality_of_lhat():
    # E <(L U)(T), eta> = <U, Lhat* eta>_control
    space, grid, data = small_setup(n_elems=6, n_steps=4)
    drv = TreeDriver(grid)
    rng = np.random.default_rng(12)
    U = random_control(drv, space.dim, seed=13)
    eta = rng.standard_normal((2**grid.n_steps, space.dim))
    lu_T = oracles.pathwise(drv, oracles.apply_L(data, drv, U).at(grid.n_steps), grid.n_steps)
    lhs = (lu_T * eta).sum(axis=1).mean()
    lhat = oracles.apply_Lhat_adjoint(data, drv, eta)
    rhs = 0.0
    for j in range(grid.n_steps):
        u_j, lhat_j = oracles.pathwise(drv, U.at(j), j), oracles.pathwise(drv, lhat.at(j), j)
        inner = (u_j * lhat_j).sum(axis=1)
        rhs += grid.tau * inner.mean()
    assert_allclose(lhs, rhs, rtol=1e-11)


def test_zeros_process_shapes():
    _, grid, _ = small_setup()
    drv = TreeDriver(grid)
    Z = zeros_process(drv, 4, grid.n_steps - 1)
    assert Z.at(2).shape == (4, 4)
    assert Z.rows.shape == (7, 4) and len(Z.values) == grid.n_steps


def test_forward_stability_without_forcing():
    # pure diffusion contracts the mean-square norm step by step when sigma = 0
    space, grid, _ = small_setup(n_elems=12, n_steps=8)
    data = make_problem(space, grid, sigma_spec=default_sigma_spec(scale=0.0))
    drv = TreeDriver(grid)
    X = solve_forward(data, drv)
    sq = [
        oracles.tree_condexp((X.at(n) * X.at(n)).sum(axis=1), n, 0)[0]
        for n in range(grid.n_steps + 1)
    ]
    # (1 + tau) / (1 + tau lam_1)^2 < 1 for the default data, so decay holds
    assert all(b <= a * (1 + 1e-12) for a, b in zip(sq, sq[1:]))
    assert np.linalg.norm(X.at(0)[0]) <= np.linalg.norm(data.x0) + 1e-12


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
@pytest.mark.parametrize("noise", ["linear", "additive"])
def test_solve_forward_matches_nodal_oracle(kind, noise):
    space, grid, data = small_setup(n_elems=9, n_steps=5, noise=noise)
    drv = TreeDriver(grid) if kind == "tree" else gaussian_driver(grid, 200, seed=3)
    U = random_control(drv, space.dim, seed=4)
    X = oracles.bit_reverse(solve_forward(data, drv, U))
    ref = oracles.nodal_solve_forward(data, drv, oracles.nodal(space, oracles.bit_reverse(U)))
    for n in range(grid.n_steps + 1):
        assert_allclose(space.from_eigen(X.at(n)), ref.at(n), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
def test_solve_forward_rejects_storage_of_another_grid(kind):
    # storage over 0..8 on a 4-step grid used to be accepted, and its stale
    # slot 8 then read as the terminal state
    space, grid, data = small_setup(n_steps=4)
    drv = TreeDriver(grid) if kind == "tree" else gaussian_driver(grid, 20, seed=1)
    long_grid = make_time_grid(1.0, 8)
    long_drv = TreeDriver(long_grid) if kind == "tree" else gaussian_driver(long_grid, 20, seed=1)
    need = re.escape(f"need {(drv.offset(5), space.dim)} for 0..4")
    with pytest.raises(ValueError, match=need):
        solve_forward(data, drv, out=zeros_process(long_drv, space.dim, 8))
    with pytest.raises(ValueError, match=need):
        solve_forward(data, drv, out=zeros_process(drv, space.dim + 1, 4))
    # five slices of three rows: refused as storage on a tree, as a process on an ensemble
    with pytest.raises(ValueError, match="shape"):
        solve_forward(data, drv, out=oracles.process(drv, [np.zeros((3, space.dim))] * 5))
    out = zeros_process(drv, space.dim, 4)
    assert solve_forward(data, drv, out=out) is out


def pinned_driver(kind, grid):
    return TreeDriver(grid) if kind == "tree" else gaussian_driver(grid, 40, seed=5)


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
@pytest.mark.parametrize("noise", ["linear", "additive"])
@pytest.mark.parametrize("control", ["stored", "gains", "none"])
def test_solve_forward_is_bitwise_the_copying_loop(kind, noise, control):
    # broadcast lifts and cached columns keep every operation and its order;
    # only the tree's rows move, by the bit reversal between the two orders
    space, grid, data = small_setup(n_elems=12, n_steps=6, alpha=0.8, noise=noise)
    drv = pinned_driver(kind, grid)
    rng = np.random.default_rng(7)
    shape = (grid.n_steps, space.dim)
    stored = random_control(drv, space.dim, seed=2)
    gains = (rng.uniform(0.1, 1.0, shape), rng.standard_normal(shape))
    ctrl = {"stored": stored, "gains": gains, "none": None}[control]
    ref_ctrl = oracles.bit_reverse(stored) if control == "stored" else ctrl
    got = solve_forward(data, drv, ctrl)
    ref = oracles.copying_solve_forward(data, drv, ref_ctrl)
    if control == "gains":
        (got, got_u), (ref, ref_u) = got, ref
        for g, r in zip(oracles.bit_reverse(got_u).values, ref_u.values, strict=True):
            assert_array_equal(g, r)
    for g, r in zip(oracles.bit_reverse(got).values, ref.values, strict=True):
        assert_array_equal(g, r)


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
@pytest.mark.parametrize("control", ["stored", "gains", "none"])
def test_solve_forward_writes_every_slot_of_reused_storage(kind, control):
    # gradient descent hands the forward solve the state storage that the
    # kernel last filled: every slot must be written before it is added to
    space, grid, data = small_setup(n_elems=12, n_steps=6, alpha=0.8)
    drv = pinned_driver(kind, grid)
    rng = np.random.default_rng(7)
    shape = (grid.n_steps, space.dim)
    gains = (rng.uniform(0.1, 1.0, shape), rng.standard_normal(shape))
    ctrl = {"stored": random_control(drv, space.dim, seed=2), "gains": gains, "none": None}[control]
    stale = zeros_process(drv, space.dim, grid.n_steps)
    stale.rows[...] = np.nan
    got, ref = solve_forward(data, drv, ctrl, out=stale), solve_forward(data, drv, ctrl)
    if control == "gains":
        (got, got_u), (ref, ref_u) = got, ref
        assert_array_equal(got_u.rows, ref_u.rows)
    assert got.rows is stale.rows
    assert_array_equal(got.rows, ref.rows)


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
def test_solve_forward_rejects_a_stored_control_of_another_grid(kind):
    space, grid, data = small_setup(n_steps=4)
    drv = pinned_driver(kind, grid)
    need = re.escape(f"need {(drv.offset(4), space.dim)} for 0..3")
    with pytest.raises(ValueError, match=need):
        solve_forward(data, drv, zeros_process(drv, space.dim, 4))
    with pytest.raises(ValueError, match=need):
        solve_forward(data, drv, zeros_process(drv, space.dim + 1, 3))


def test_tree_slice_means_match_row_sum_means():
    # one reduceat over the row dots sums a tree level in another order than
    # the per-level row sums; ensembles and the heads of either driver too
    space, grid, data = small_setup(n_elems=16, n_steps=6, alpha=0.8)
    N = grid.n_steps
    for drv in (TreeDriver(grid), pinned_driver("ensemble", grid)):
        U = random_control(drv, space.dim, seed=3)
        full = solve_forward(data, drv, U)
        X = full.head(N - 1)
        heads = [(full.head(k), full) for k in (0, 1, 3, N - 1)] + [(U.head(2), U), (full, full)]
        for head, parent in heads:
            assert np.shares_memory(head.rows, parent.rows)
            assert all(np.shares_memory(v, parent.rows) for v in head.values)
        for u, v in [(X, X), (U, U), (X, U)] + [(h, h) for h, _ in heads]:
            got, want = u.slice_means(v), oracles.einsum_slice_means(u, v)
            assert_allclose(got, want, rtol=1e-15, atol=0)
