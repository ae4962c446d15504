import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import kstest

import oracles
from slqheat.noise import (
    EnsembleDriver,
    TreeDriver,
    gaussian_driver,
    make_time_grid,
    refine_common_path,
)


def test_time_grid_basics():
    grid = make_time_grid(1.0, 8)
    assert grid.tau == pytest.approx(0.125)
    assert_allclose(grid.nodes, np.linspace(0.0, 1.0, 9))


def test_time_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_time_grid(1.0, 0)
    with pytest.raises(ValueError):
        make_time_grid(-1.0, 4)
    with pytest.raises(ValueError):
        make_time_grid(3.0, 2)  # tau = 1.5 > 1


@pytest.mark.parametrize("n_steps", [2.5, True, 4.0])
def test_time_grid_refuses_a_step_count_that_is_not_an_integer(n_steps):
    # 2.5 built a grid of 4 nodes and True a 1-step grid
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        make_time_grid(1.0, n_steps)


def test_time_grid_resolves_a_numpy_step_count_to_int():
    grid = make_time_grid(1.0, np.int64(4))
    assert type(grid.n_steps) is int and grid.n_steps == 4
    assert_array_equal(grid.nodes, make_time_grid(1.0, 4).nodes)


def test_tree_step_k_sign_is_bit_k_minus_1():
    # W built level by level as solve_forward builds the state: parent rows
    # lifted to both sign blocks of the children, plus the step column
    drv = TreeDriver(make_time_grid(1.0, 4))
    s = np.sqrt(0.25)
    w = np.zeros((1, 1))
    for n in range(1, 5):
        nxt = np.empty((oracles.n_scenarios(drv, n), 1))
        np.add(w[None], drv.dw[n - 1], out=drv.siblings(nxt))
        w = nxt
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # column k - 1: bit k - 1
        assert_array_equal(w[:, 0], s * (2 * bits - 1).sum(axis=1))
    assert (drv.offset(3), drv.offset(4)) == (7, 15)


def test_tree_depth_cap():
    with pytest.raises(ValueError):
        TreeDriver(make_time_grid(1.0, 17))


def test_tree_increments_are_standardized():
    drv = TreeDriver(make_time_grid(1.0, 5))
    tau = drv.grid.tau
    for k in (1, 3, 5):
        inc = oracles.increments_at(drv, k)
        assert abs(inc.mean()) == 0.0
        assert_allclose(inc**2, tau)


def test_tree_condexp_is_subtree_mean():
    vals = np.arange(8.0)
    out = oracles.tree_condexp(vals, 3, 1)
    assert_allclose(out, [vals[:4].mean(), vals[4:].mean()])
    with pytest.raises(ValueError):
        oracles.tree_condexp(vals, 3, 4)


def test_tree_condexp_rejects_rows_of_another_level():
    with pytest.raises(ValueError, match="level 3 data need 8 rows, got 4"):
        oracles.tree_condexp(np.ones((4, 2)), 3, 1)


def test_tree_condexp_rejects_negative_level():
    with pytest.raises(ValueError, match="level 2 data on level -1"):
        oracles.tree_condexp(np.ones((4, 2)), 2, -1)


@settings(max_examples=30, deadline=None)
@given(
    j=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tree_condexp_tower_property(j, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((1 << j, 3))
    m = rng.integers(1, j + 1)
    n = rng.integers(0, m + 1)
    two_step = oracles.tree_condexp(oracles.tree_condexp(vals, j, m), m, n)
    one_step = oracles.tree_condexp(vals, j, n)
    assert_allclose(two_step, one_step, atol=1e-12)


def test_tree_pathwise_expansion_shapes():
    drv = TreeDriver(make_time_grid(1.0, 4))
    vals = np.arange(12.0).reshape(4, 3)  # level 2 node values, d = 3
    assert oracles.child_expand(drv, vals).shape == (8, 3)
    assert_allclose(oracles.sibling_mean(drv, oracles.child_expand(drv, vals)), vals)
    assert oracles.pathwise(drv, vals, 2).shape == (16, 3)
    assert oracles.pathwise_increment(drv, 1).shape == (16,)


def test_gaussian_driver_partition_independence():
    grid = make_time_grid(1.0, 16)
    big = gaussian_driver(grid, 12, seed=99)
    small = gaussian_driver(grid, 5, seed=99)
    assert_allclose(big.increments[:5], small.increments)
    other = gaussian_driver(grid, 5, seed=100)
    assert np.abs(other.increments - small.increments).max() > 1e-3


def test_gaussian_driver_brownian_is_cumsum():
    grid = make_time_grid(1.0, 8)
    drv = gaussian_driver(grid, 7, seed=3)
    w = np.column_stack([drv.brownian(n) for n in range(9)])
    assert_allclose(w[:, 0], 0.0)
    assert_allclose(np.diff(w, axis=1), drv.increments, atol=1e-15)
    assert oracles.increments_at(drv, 3).shape == (7,)
    assert_allclose(oracles.increments_at(drv, 3), drv.increments[:, 2])


def test_gaussian_increments_pass_ks_and_moment_checks():
    grid = make_time_grid(1.0, 4)
    drv = gaussian_driver(grid, 5000, seed=2024)
    z = drv.increments.ravel() / np.sqrt(grid.tau)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.02
    # soft distributional sanity check; seed is fixed so this is deterministic
    assert kstest(z, "norm").pvalue > 1e-4


def test_refine_common_path_pairwise_sums():
    grid = make_time_grid(1.0, 8)
    fine = gaussian_driver(grid, 6, seed=11)
    coarse = refine_common_path(fine)
    assert coarse.grid.n_steps == 4
    assert coarse.grid.tau == pytest.approx(2 * grid.tau)
    assert_allclose(coarse.increments, fine.increments[:, ::2] + fine.increments[:, 1::2])
    # shared Wiener path: W agrees at the common nodes t_0, t_2, t_4, ...
    for n in range(5):
        assert_allclose(coarse.brownian(n), fine.brownian(2 * n), atol=1e-15)


def test_refine_common_path_three_levels():
    grid = make_time_grid(1.0, 64)
    fine = gaussian_driver(grid, 3, seed=8)
    drv = fine
    for _ in range(3):
        drv = refine_common_path(drv)
    assert drv.grid.n_steps == 8
    assert_allclose(drv.increments, fine.increments.reshape(3, 8, 8).sum(axis=2), atol=1e-14)


def test_refine_common_path_rejects_odd():
    grid = make_time_grid(1.0, 6)
    drv = gaussian_driver(grid, 2, seed=1)
    with pytest.raises(ValueError):
        refine_common_path(refine_common_path(drv))


def test_ensemble_grid_and_wiener_values_come_from_its_increments():
    inc = np.random.default_rng(0).standard_normal((5, 12)) / np.sqrt(12)
    drv = EnsembleDriver(1.0, inc)
    assert (drv.grid.horizon, drv.grid.n_steps) == (1.0, inc.shape[1])
    assert_allclose(drv.grid.nodes, make_time_grid(1.0, 12).nodes, rtol=0, atol=0)
    assert_array_equal(drv.brownian(0), 0.0)
    assert_array_equal(drv.brownian(slice(1, None)), np.cumsum(inc, axis=1))
    # halving two steps of 1 on horizon 2 would leave one step of 2
    with pytest.raises(ValueError, match="exceeds 1"):
        refine_common_path(EnsembleDriver(2.0, inc[:, :2]))
    # one path's row raised an IndexError; no path at all failed only in a later split
    for bad in (inc[0], inc[:0]):
        refused = re.escape(f"need (P >= 1, N) increments, got shape {bad.shape}")
        with pytest.raises(ValueError, match=refused):
            EnsembleDriver(1.0, bad)
    with pytest.raises(ValueError, match="at least one time step"):
        EnsembleDriver(1.0, inc[:, :0])


def test_ensemble_increments_are_frozen_and_step_columns_cached():
    grid = make_time_grid(1.0, 8)
    drv = gaussian_driver(grid, 7, seed=3)
    w = drv.brownian(slice(None)).copy()
    # a write would leave the cached Wiener values and multipliers stale
    with pytest.raises(ValueError):
        drv.increments[0, 0] = 1.0
    with pytest.raises(ValueError):
        drv.brownian(2)[0] = 1.0
    assert_array_equal(drv.brownian(slice(None)), w)
    assert np.shares_memory(drv.dw, drv.increments)
    assert not drv.mult.flags.writeable
    for k in range(1, 9):
        assert_array_equal(drv.dw[k - 1][0, :, 0], oracles.increments_at(drv, k))
        assert_array_equal(drv.mult[k - 1][0, :, 0], 1 + oracles.increments_at(drv, k))
        assert drv.mult[k - 1].flags.c_contiguous


def test_tree_step_columns_split_every_node_into_its_two_children():
    drv = TreeDriver(make_time_grid(1.0, 5))
    assert not drv.dw.flags.writeable and not drv.mult.flags.writeable
    for k in range(1, 6):
        parents = 1 << (k - 1)
        # sign-major: every minus-child, then every plus-child
        inc = oracles.bit_reverse_rows(oracles.increments_at(drv, k), k)
        assert drv.dw[k - 1].shape == drv.mult[k - 1].shape == (2, 1, 1)
        assert_array_equal(np.repeat(drv.dw[k - 1][:, 0, 0], parents), inc)
        assert_array_equal(np.repeat(drv.mult[k - 1][:, 0, 0], parents), 1 + inc)


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
def test_siblings_is_a_writable_view_grouped_by_parent(kind):
    grid = make_time_grid(1.0, 4)
    drv = TreeDriver(grid) if kind == "tree" else gaussian_driver(grid, 6, seed=1)
    values = np.zeros((oracles.n_scenarios(drv, 3), 5))[:, 1:4]  # rows of another array
    grouped = drv.siblings(values)
    assert grouped.shape == ((2, 4, 3) if kind == "tree" else (1, 6, 3))
    parents = grouped.shape[1]
    grouped[...] = np.arange(parents)[:, None]  # every child gets its parent's index
    expected = np.tile(np.arange(parents, dtype=float), len(grouped))
    assert_array_equal(values, np.broadcast_to(expected[:, None], values.shape))


@pytest.mark.parametrize("depth", [1, 2, 3, 8])
def test_tree_level_ops_run_on_two_contiguous_sign_blocks(depth):
    # the minus- and plus-children of a level are each one C-contiguous block
    drv = TreeDriver(make_time_grid(1.0, depth))
    values = np.random.default_rng(depth).standard_normal((oracles.n_scenarios(drv, depth), 15))
    half = oracles.n_scenarios(drv, depth - 1)
    for b, block in enumerate(drv.siblings(values)):
        assert block.shape == (half, 15) and block.flags.c_contiguous
        assert np.shares_memory(block, values)
        assert_array_equal(block, values[b * half : (b + 1) * half])
    got = oracles.bit_reverse_rows(drv.parent_mean(values), depth - 1)
    want = oracles.tree_condexp(oracles.bit_reverse_rows(values, depth), depth, depth - 1)
    assert_array_equal(got, want)


def test_bit_reverse_rows_is_an_involution():
    assert_array_equal(oracles.bit_reverse_rows(np.arange(8), 3), [0, 4, 2, 6, 1, 5, 3, 7])
    values = np.random.default_rng(0).standard_normal((32, 3))
    assert_array_equal(oracles.bit_reverse_rows(oracles.bit_reverse_rows(values, 5), 5), values)
    with pytest.raises(ValueError, match="level 3 data need 8 rows, got 4"):
        oracles.bit_reverse_rows(np.ones(4), 3)


def test_tree_noise_terms_are_contiguous_rows_of_the_broadcast_product():
    # a tree step adds sigma_n dW_{n+1} from two contiguous sign blocks,
    # where it broadcast a (2, 1, d) product over the level
    drv = TreeDriver(make_time_grid(1.0, 6))
    sigma = np.random.default_rng(4).standard_normal((6, 7))
    terms, factors, columns = drv.noise_terms(sigma)
    rows = terms[0].base
    assert rows.shape == (drv.offset(7), 7)  # one process of rows
    assert factors == columns == [None] * 6
    for n, term in enumerate(terms):
        assert term.base is rows and term.shape == (2, 1 << n, 7) and term.flags.c_contiguous
        assert_array_equal(term, np.broadcast_to(np.multiply(sigma[n], drv.dw[n]), term.shape))


def test_ensemble_noise_terms_share_one_scratch_and_keep_the_per_step_factors():
    # a whole ensemble term would fill a process, so each step forms its product
    drv = gaussian_driver(make_time_grid(1.0, 5), 6, seed=2)
    sigma = np.random.default_rng(4).standard_normal((5, 7))
    scratch, factors, columns = drv.noise_terms(sigma)
    assert len(scratch) == 5 and all(term is scratch[0] for term in scratch)
    assert scratch[0].shape == (1, 6, 7)
    for n in range(5):
        assert_array_equal(factors[n], sigma[n])
        assert_array_equal(columns[n], drv.dw[n])


@pytest.mark.parametrize("n_paths", [True, 2.0, 2.5])
def test_gaussian_driver_refuses_a_path_count_that_is_not_an_integer(n_paths):
    # each died with a bare TypeError from NumPy or from the Philox jump
    grid = make_time_grid(1.0, 4)
    with pytest.raises(ValueError, match=re.escape(f"n_paths must be an integer, got {n_paths!r}")):
        gaussian_driver(grid, n_paths, seed=1)


def test_gaussian_driver_takes_a_numpy_path_count():
    grid = make_time_grid(1.0, 4)
    drv = gaussian_driver(grid, np.int64(3), seed=1)
    assert_array_equal(drv.increments, gaussian_driver(grid, 3, seed=1).increments)
