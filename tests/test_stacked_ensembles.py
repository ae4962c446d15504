"""Stacked process storage and the batched regression against their per-slice oracles.

Every process is one C-contiguous (R, d) row array whose slices are views
(the (K, P, d) reshape on an ensemble), the ensemble reductions are single
einsums, the conditioned backward sweep solves the normal equations of all
its slices in one batched call, and gradient descent updates the whole
control at once in the state's storage.  The per-slice code they replaced
lives on in ``tests/oracles.py``; everything here must agree with it to
1e-12, and the storage layout itself is pinned so that a fallback to
per-slice copies fails a test instead of only losing speed.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from slqheat.adjoint import implicit_euler_bsde, k_htau
from slqheat.experiments import _temporal_errors
from slqheat.forward import AdaptedProcess, make_problem, solve_forward, zeros_process
from slqheat.mesh import build_fem_space
from slqheat.noise import TreeDriver, gaussian_driver, make_time_grid, refine_common_path
from slqheat.optimizer import (
    control_inner,
    cost,
    cost_with_stderr,
    gradient_descent,
)
from slqheat.riccati import discrete_feedback

NOISES = ["linear", "additive"]


def ensemble(noise, n_paths=200, n_steps=6, n_elems=9, alpha=0.8, seed=11):
    space = build_fem_space(n_elems)
    grid = make_time_grid(1.0, n_steps)
    data = make_problem(space, grid, alpha=alpha, noise=noise)
    return data, gaussian_driver(grid, n_paths, seed)


def random_control(driver, n_steps, dim, seed):
    rng = np.random.default_rng(seed)
    return oracles.process(driver, rng.standard_normal((n_steps, driver.n_paths, dim)))


def assert_kernel_matches_oracle(data, drv, X):
    ref = oracles.slice_k_htau(data, drv, X)
    Q = k_htau(data, X)
    for n in range(data.grid.n_steps):
        assert_allclose(Q.at(n), ref[n], rtol=0, atol=1e-12)


@pytest.mark.parametrize("noise", NOISES)
def test_k_htau_matches_per_slice_regression(noise):
    data, drv = ensemble(noise)
    u = random_control(drv, data.grid.n_steps, data.space.dim, seed=1)
    assert_kernel_matches_oracle(data, drv, solve_forward(data, drv, u))


@pytest.mark.parametrize("noise", NOISES)
def test_implicit_euler_bsde_matches_per_slice_regression(noise):
    data, drv = ensemble(noise)
    X = solve_forward(data, drv, random_control(drv, data.grid.n_steps, data.space.dim, seed=2))
    y0 = implicit_euler_bsde(data, X)
    zbar0 = oracles.bsde_martingale(data, drv, X, y0)
    y_ref, z_ref = oracles.slice_implicit_euler_bsde(data, drv, X)
    for n in range(data.grid.n_steps + 1):
        assert_allclose(y0.at(n), y_ref[n], rtol=0, atol=1e-12)
    for n in range(data.grid.n_steps):
        assert_allclose(zbar0.at(n), z_ref[n], rtol=0, atol=1e-12)


@pytest.mark.parametrize("noise", NOISES)
def test_reductions_match_per_slice_sums(noise):
    data, drv = ensemble(noise)
    N, d = data.grid.n_steps, data.space.dim
    u = random_control(drv, N, d, seed=3)
    v = random_control(drv, N, d, seed=4)
    X = solve_forward(data, drv, u)
    assert_allclose(cost(data, X, u), oracles.slice_cost(data, X, u), rtol=1e-12)
    assert_allclose(control_inner(data, u, v), oracles.slice_control_inner(data, u, v), rtol=1e-12)
    assert_allclose(
        cost_with_stderr(data, X, u), oracles.slice_cost_with_stderr(data, X, u), rtol=1e-12
    )


@pytest.mark.parametrize("noise", NOISES)
def test_temporal_errors_match_per_slice_loops(noise):
    data_ref, fine = ensemble(noise, n_steps=16)
    coarse = refine_common_path(refine_common_path(fine))
    data_lvl = data_ref.with_grid(coarse.grid)
    d = data_ref.space.dim
    u_ref = random_control(fine, 16, d, seed=5)
    u_lvl = random_control(coarse, 4, d, seed=6)
    x_ref = solve_forward(data_ref, fine, u_ref)
    x_lvl = solve_forward(data_lvl, coarse, u_lvl)
    got = _temporal_errors(u_ref, x_ref, u_lvl, x_lvl)
    want = oracles.slice_temporal_errors(fine.grid.tau, 16, 4, u_ref, x_ref, u_lvl, x_lvl)
    assert_allclose(got, want, rtol=1e-12)


def test_temporal_errors_build_no_temporary_the_size_of_the_coarse_state():
    # 16 reference steps against level 8: a stride of 2 slices, below the 9
    # coarse nodes, so a whole-process state difference would pass the bound
    data_ref, fine = ensemble("linear", n_paths=2000, n_steps=16, n_elems=16)
    coarse = refine_common_path(fine)
    d = data_ref.space.dim
    u_ref, u_lvl = random_control(fine, 16, d, seed=7), random_control(coarse, 8, d, seed=8)
    x_ref = solve_forward(data_ref, fine, u_ref)
    x_lvl = solve_forward(data_ref.with_grid(coarse.grid), coarse, u_lvl)
    state_bytes = x_lvl.values.nbytes
    tracemalloc.start()
    try:
        _temporal_errors(u_ref, x_ref, u_lvl, x_lvl)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < state_bytes, f"peak {peak / state_bytes:.2f} coarse states"


def assert_descent_matches_per_slice_loop(data, drv, max_iters, tol_grad=None):
    u, trace = gradient_descent(data, drv, max_iters, tol_grad=tol_grad)
    u_ref, trace_ref = oracles.slice_gradient_descent(data, drv, max_iters, tol_grad=tol_grad)
    u_ref = oracles.bit_reverse(u_ref)  # the oracle's tree is interleaved
    for n in range(data.grid.n_steps):
        assert_allclose(u.at(n), u_ref.at(n), rtol=0, atol=1e-12)
    assert_allclose(trace.cost, trace_ref.cost, rtol=1e-12)
    assert_allclose(trace.grad_norm, trace_ref.grad_norm, rtol=1e-12)
    assert trace.stop == trace_ref.stop


@pytest.mark.parametrize("noise", NOISES)
def test_gradient_descent_matches_per_slice_loop(noise):
    data, drv = ensemble(noise)
    assert_descent_matches_per_slice_loop(data, drv, max_iters=8)


@pytest.mark.parametrize("noise", NOISES)
def test_gradient_descent_matches_per_slice_loop_on_tree(noise):
    # tol_grad stops the tree runs, so the stop reason is compared too
    space = build_fem_space(9)
    grid = make_time_grid(1.0, 6)
    data = make_problem(space, grid, alpha=0.8, noise=noise)
    assert_descent_matches_per_slice_loop(data, TreeDriver(grid), max_iters=200, tol_grad=1e-10)


def test_gradient_descent_allocates_no_second_process():
    # u and the state are two processes and the regression features a
    # fraction of one; the kernel and the gradient live in the state's
    # slots, so a separate (N, P, d) buffer for either would pass 2.5
    space = build_fem_space(32)
    grid = make_time_grid(0.25, 32)
    data = make_problem(space, grid, noise="linear")
    drv = gaussian_driver(grid, 2000, seed=5)
    drv.brownian(0)  # the path cache belongs to the driver, not to the descent
    process_bytes = (grid.n_steps + 1) * drv.n_paths * space.dim * 8
    tracemalloc.start()
    try:
        gradient_descent(data, drv, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * process_bytes, f"peak {peak / process_bytes:.2f} processes"


@settings(max_examples=25, deadline=None)
@given(
    n_paths=st.integers(2, 40),
    n_steps=st.integers(1, 6),
    n_elems=st.integers(2, 9),
    noise=st.sampled_from(NOISES),
    seed=st.integers(0, 2**16),
)
def test_batched_regression_and_reductions_match_oracles(n_paths, n_steps, n_elems, noise, seed):
    # fewer paths than features and single-mode spaces included: the ridge
    # systems are then nearly singular, and the batched solve must still
    # reproduce the per-slice one
    data, drv = ensemble(noise, n_paths=n_paths, n_steps=n_steps, n_elems=n_elems, seed=seed)
    u = random_control(drv, n_steps, data.space.dim, seed=seed + 1)
    X = solve_forward(data, drv, u)
    assert_kernel_matches_oracle(data, drv, X)
    assert_allclose(cost(data, X, u), oracles.slice_cost(data, X, u), rtol=1e-12)
    assert_allclose(
        cost_with_stderr(data, X, u), oracles.slice_cost_with_stderr(data, X, u), rtol=1e-12
    )


# -- storage layout ------------------------------------------------------------


def assert_layout(proc, stop, dim):
    """One C-contiguous float (R, d) row array over 0..stop; every slice a view of its rows."""
    driver, rows = proc.driver, proc.rows
    assert type(rows) is np.ndarray and rows.flags.c_contiguous and rows.dtype == np.float64
    assert rows.shape == (driver.offset(stop + 1), dim)
    assert len(proc.values) == stop + 1
    for n, v in enumerate(proc.values):
        assert v.shape == (oracles.n_scenarios(driver, n), dim)
        assert np.shares_memory(v, rows)
        assert_array_equal(v, rows[driver.offset(n) : driver.offset(n + 1)])
    if driver.kind == "ensemble":
        assert proc.values.shape == (stop + 1, driver.n_paths, dim)


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
def test_process_layout(kind):
    space = build_fem_space(6)
    grid = make_time_grid(1.0, 4)
    data = make_problem(space, grid)
    drv = TreeDriver(grid) if kind == "tree" else gaussian_driver(grid, 30, seed=3)
    d, N = space.dim, grid.n_steps

    assert_layout(zeros_process(drv, d, 3), 3, d)
    x, u = solve_forward(data, drv, discrete_feedback(data))
    assert_layout(x, N, d)
    assert_layout(u, N - 1, d)
    assert_layout(x.head(N - 1), N - 1, d)
    assert_layout(solve_forward(data, drv, u), N, d)
    assert_layout(k_htau(data, x), N - 1, d)
    u_gd, _ = gradient_descent(data, drv, 2)
    assert_layout(u_gd, N - 1, d)
    assert_layout(u_gd - u, N - 1, d)
    assert_layout(oracles.process(drv, list(u.values)), N - 1, d)


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
def test_rows_that_fill_no_whole_slices_are_refused(kind):
    # 6 tree rows are levels 0-1 and 3 stray rows; 6 rows of 5 paths leave one stray
    grid = make_time_grid(1.0, 3)
    drv = TreeDriver(grid) if kind == "tree" else gaussian_driver(grid, 5, seed=1)
    for rows in (np.zeros((6, 2)), np.zeros((0, 2)), np.zeros(drv.offset(3))):
        with pytest.raises(ValueError, match="whole slices"):
            AdaptedProcess(drv, rows)
    assert len(AdaptedProcess(drv, np.zeros((drv.offset(3), 2))).values) == 3
    assert (drv.offset(0), drv.offset(3)) == ((0, 7) if kind == "tree" else (0, 15))
