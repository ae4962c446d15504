import re
from dataclasses import dataclass, field

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from oracles import a0_apply, apply_L_adjoint, apply_Lhat_adjoint, tree_condexp
from slqheat.adjoint import _sweep, adjoint_gap, implicit_euler_bsde, k_htau
from slqheat.forward import make_problem, solve_forward, zeros_process
from slqheat.mesh import build_fem_space
from slqheat.noise import TreeDriver, gaussian_driver, make_time_grid


def tree_setup(n_elems=5, n_steps=3, alpha=1.0, noise="linear"):
    space = build_fem_space(n_elems)
    grid = make_time_grid(1.0, n_steps)
    data = make_problem(space, grid, alpha=alpha, noise=noise)
    return space, grid, data, TreeDriver(grid)


def test_k_htau_matches_literal_sums():
    space, grid, data, drv = tree_setup(alpha=0.7)
    X = solve_forward(data, drv)
    Q = oracles.bit_reverse(k_htau(data, drv, X))
    X_nodal = oracles.nodal(space, oracles.bit_reverse(X))
    ref = oracles.literal_k_htau(space, drv, data.alpha, X_nodal)
    assert len(Q.values) == grid.n_steps
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


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
def test_k_htau_into_state_slots_equals_fresh_storage(kind):
    # gradient descent lets the kernel overwrite the state it reads: the
    # sweep reads slot n + 1 into its buffers and writes no slot before the
    # state is read whole, so either noise and either offset gives bitwise
    # what separate storage gets
    for noise in ("linear", "additive"):
        space, grid, data, drv = tree_setup(n_elems=7, n_steps=5, alpha=0.6, noise=noise)
        if kind == "ensemble":
            drv = gaussian_driver(grid, 200, seed=12)
        N = grid.n_steps
        rng = np.random.default_rng(3)
        U = oracles.process(drv, [
            rng.standard_normal((oracles.n_scenarios(drv, n), space.dim)) for n in range(N)
        ])
        for offset in (1, 2):
            X = solve_forward(data, drv, U)
            fresh = zeros_process(drv, space.dim, N - 1)
            _sweep(data, drv, X, offset, fresh)
            _sweep(data, drv, X, offset, X.head(N - 1))
            for n in range(N):
                assert_array_equal(X.at(n), fresh.at(n))
        X = solve_forward(data, drv, U)
        slots = X.head(N - 1)
        assert k_htau(data, drv, X, out=slots) is slots


def regressed(data, drv, state, targets):
    """E[targets | F_{N-1}] by the library's regression on an additive-noise ensemble.

    Slice N-1 of the backward equation regresses -(alpha + tau) A0 X_N on
    the features of X_{N-1}, so ``state`` gets the slice N that makes
    this the targets (broadcast over the modes).
    """
    assert data.noise == "additive"
    N, tau = data.grid.n_steps, data.grid.tau
    scale = a0_apply(data.space, tau, np.ones(data.space.dim))
    state.at(N)[...] = -targets / ((data.alpha + tau) * scale)
    return implicit_euler_bsde(data, drv, state).at(N - 1)


def test_bsde_terminal_condition_and_measurability():
    space, grid, data, drv = tree_setup(n_steps=4, alpha=0.9)
    X = solve_forward(data, drv)
    y0 = implicit_euler_bsde(data, drv, X)
    zbar0 = oracles.bsde_martingale(data, drv, X, y0)
    assert_allclose(y0.at(grid.n_steps), -data.alpha * X.at(grid.n_steps), atol=1e-14)
    for n in range(grid.n_steps + 1):
        assert y0.at(n).shape == (2**n, space.dim)
    for n in range(grid.n_steps):
        assert zbar0.at(n).shape == (2**n, space.dim)


def test_bsde_martingale_identity_on_tree():
    space, grid, data, drv = tree_setup(n_elems=6, n_steps=5, alpha=1.0)
    X = solve_forward(data, drv)
    X, y0 = oracles.bit_reverse(X), oracles.bit_reverse(implicit_euler_bsde(data, drv, X))
    zbar0 = oracles.bsde_martingale(data, drv, X, y0)
    assert oracles.bsde_residual(data, drv, X, y0, zbar0) <= 1e-10


def test_bsde_slice_recursion_equivalence():
    # Y0(t_n) = A0 E[(1 + dW_{n+1})(Y0(t_{n+1}) - tau X(t_{n+1})) | F_n]
    space, grid, data, drv = tree_setup(n_elems=4, n_steps=4)
    tau = grid.tau
    X = solve_forward(data, drv)
    X, y0 = oracles.bit_reverse(X), oracles.bit_reverse(implicit_euler_bsde(data, drv, X))
    for n in range(grid.n_steps):
        mult = 1.0 + oracles.increments_at(drv, n + 1)[:, None]
        inner = (y0.at(n + 1) - tau * X.at(n + 1)) * mult
        expected = a0_apply(space, tau, tree_condexp(inner, n + 1, n))
        assert_allclose(y0.at(n), expected, atol=1e-12)


def test_bsde_deterministic_driver_reduction():
    # for a deterministic state process the backward equation degenerates:
    # Zbar0 = 0 and Y0(t_n) = A0 (Y0(t_{n+1}) - tau X(t_{n+1}))
    space, grid, data, drv = tree_setup(n_elems=5, n_steps=4, alpha=0.5)
    rng = np.random.default_rng(0)
    det = rng.standard_normal((grid.n_steps + 1, space.dim))
    X = oracles.process(
        drv, [np.broadcast_to(det[n], (2**n, space.dim)) for n in range(grid.n_steps + 1)]
    )
    y0 = implicit_euler_bsde(data, drv, X)
    zbar0 = oracles.bsde_martingale(data, drv, X, y0)
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


def test_regression_condexp_recovers_affine_targets():
    rng = np.random.default_rng(1)
    F = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
    beta_true = np.array([[1.0, -2.0], [0.5, 0.0], [0.0, 3.0], [2.0, 1.0]])
    Y = F @ beta_true
    beta, pred = oracles.regression_condexp(F, Y)
    assert_allclose(beta, beta_true, atol=1e-6)
    assert_allclose(pred, Y, atol=1e-6)


def test_regression_estimator_exact_for_affine_functionals():
    # targets that are exactly affine in the features are reproduced
    space = build_fem_space(9)
    grid = make_time_grid(1.0, 6)
    data = make_problem(space, grid, noise="additive")
    drv = gaussian_driver(grid, 300, seed=4)
    X = solve_forward(data, drv)
    n = grid.n_steps - 1
    coords = X.at(n)[:, :4]
    target = 2.0 + coords @ np.array([1.0, -1.0, 0.5, 2.0]) + 0.25 * drv.brownian(n)
    pred = regressed(data, drv, X, target[:, None])
    assert_allclose(pred, np.broadcast_to(target[:, None], pred.shape), atol=1e-6)


def test_regression_estimator_constant_slice_at_time_zero():
    # at t_0 every path coincides, so conditioning returns the plain mean
    space = build_fem_space(5)
    grid = make_time_grid(1.0, 1)
    data = make_problem(space, grid, noise="additive")
    drv = gaussian_driver(grid, 500, seed=5)
    X = solve_forward(data, drv)
    rng = np.random.default_rng(6)
    targets = rng.standard_normal((500, space.dim))
    pred = regressed(data, drv, X, targets)
    assert np.abs(pred - pred[0]).max() < 1e-8
    assert_allclose(pred[0], targets.mean(axis=0), atol=1e-6)


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
    Q = oracles.bit_reverse(k_htau(data, drv, solve_forward(data, drv)))
    ref = oracles.nodal_k_htau(data, drv, oracles.nodal_solve_forward(data, drv))
    for n in range(grid.n_steps):
        assert_allclose(space.from_eigen(Q.at(n)), ref[n], rtol=0, atol=1e-12)


def assert_bsde_matches_nodal_oracle(space, data, drv, X):
    """implicit_euler_bsde, bsde_martingale and bsde_residual against the nodal sweep oracle."""
    N = data.grid.n_steps
    X, y0 = oracles.bit_reverse(X), oracles.bit_reverse(implicit_euler_bsde(data, drv, X))
    zbar0 = oracles.bsde_martingale(data, drv, X, y0)
    X_nodal = oracles.nodal_solve_forward(data, drv)
    y_ref, z_ref = oracles.nodal_implicit_euler_bsde(data, drv, X_nodal)
    for n in range(N + 1):
        assert_allclose(space.from_eigen(y0.at(n)), y_ref[n], rtol=0, atol=1e-12)
    for n in range(N):
        assert_allclose(space.from_eigen(zbar0.at(n)), z_ref[n], rtol=0, atol=1e-12)
    worst = oracles.nodal_bsde_residual(data, drv, X_nodal, y_ref, z_ref)
    assert abs(oracles.bsde_residual(data, drv, X, y0, zbar0) - worst) <= 1e-12
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


@pytest.mark.parametrize("noise", ["linear", "additive"])
@pytest.mark.parametrize("depth", [1, 2, 3, 8])
def test_tree_kernel_consumers_match_leafwise_oracle(depth, noise):
    # the level-collapsed sweep against the leaf-wise nodal one; at depths
    # 1 and 2 every step meets the min(n + offset, N) edge
    space, grid, data, drv = tree_setup(n_elems=7, n_steps=depth, alpha=0.6, noise=noise)
    rng = np.random.default_rng(depth)
    X = oracles.process(drv, [rng.standard_normal((2**n, space.dim)) for n in range(depth + 1)])
    # the leaf-wise oracles number the tree interleaved: compare through the bit reversal
    rev = oracles.bit_reverse
    Xi = rev(X)
    Xn = oracles.nodal(space, Xi)
    y0 = rev(implicit_euler_bsde(data, drv, X))
    zbar0 = oracles.bsde_martingale(data, drv, Xi, y0)
    y_ref, z_ref = oracles.nodal_implicit_euler_bsde(data, drv, Xn)
    pairs = [
        (rev(k_htau(data, drv, X)).values, oracles.nodal_k_htau(data, drv, Xn)),
        (rev(apply_L_adjoint(data, drv, X)).values, oracles.nodal_l_adjoint(data, drv, Xn)),
        (
            rev(apply_Lhat_adjoint(data, drv, X.at(depth))).values,
            oracles.nodal_lhat_adjoint(data, drv, Xn.at(depth)),
        ),
        (y0.values, y_ref),
        (zbar0.values, z_ref),
    ]
    for got, ref in pairs:
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_allclose(space.from_eigen(g), r, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
def test_k_htau_rejects_storage_of_another_grid(kind):
    space, grid, data, drv = tree_setup(n_elems=5, n_steps=4)
    if kind == "ensemble":
        drv = gaussian_driver(grid, 40, seed=3)
    X = solve_forward(data, drv)
    need = re.escape(f"need {(drv.offset(4), space.dim)} for 0..3")
    with pytest.raises(ValueError, match=need):
        k_htau(data, drv, X, out=X)
    with pytest.raises(ValueError, match=need):
        k_htau(data, drv, X, out=zeros_process(drv, space.dim + 1, 3))
    with pytest.raises(ValueError, match="shape"):
        k_htau(data, drv, X, out=oracles.process(drv, [np.zeros((3, space.dim))] * 4))
    # the sweep reads the state's slots directly, so a state of another grid is refused
    with pytest.raises(ValueError, match=re.escape(f"need {(drv.offset(5), space.dim)} for 0..4")):
        k_htau(data, drv, X.head(3))


@dataclass
class SpyTree(TreeDriver):
    """A scenario tree that records each sibling average it takes, with a copy."""

    averages: list = field(repr=False, default_factory=list)

    def parent_mean(self, values):
        mean = super().parent_mean(values)
        self.averages.append((len(values), mean, mean.copy()))
        return mean


CONSUMERS = {2: k_htau, 1: implicit_euler_bsde}


def spied_sweep(noise, offset):
    """The sibling averages one depth-10 tree sweep takes, as (rows, mean, copy)."""
    space, grid, data, _ = tree_setup(n_elems=16, n_steps=10, alpha=0.6, noise=noise)
    X = solve_forward(data, TreeDriver(grid))
    drv = SpyTree(grid)
    CONSUMERS[offset](data, drv, X)
    return drv.averages


@pytest.mark.parametrize("offset", [1, 2])
def test_tree_sweep_takes_each_sibling_average_once(offset):
    # depth 10: the average that conditions slice n is where step n - 1
    # starts after its level drop, so it is taken once.  Taking it twice
    # gives 27 calls over 6,130 rows (kernel) and 19 over 4,090 (backward
    # equation); a leaf-wise sweep averages 2^N rows per step
    averages = spied_sweep("linear", offset)
    calls, rows = {2: (19, 4090), 1: (10, 2046)}[offset]
    assert (len(averages), sum(n for n, _, _ in averages)) == (calls, rows)


@pytest.mark.parametrize("offset", [1, 2])
@pytest.mark.parametrize("noise", ["linear", "additive"])
def test_tree_sweep_never_updates_a_held_average(noise, offset):
    # each average is held as a conditioned slice or as the next step's start:
    # the sweep never updates one in place
    for _, mean, copy in spied_sweep(noise, offset):
        assert np.array_equal(mean, copy)


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
@pytest.mark.parametrize("noise", ["linear", "additive"])
@pytest.mark.parametrize("offset", [1, 2])
def test_sweep_is_bitwise_the_copying_loop(kind, noise, offset):
    # broadcast lifts and cached columns keep every operation and its order;
    # only the tree's rows move, by the bit reversal between the two orders
    space, grid, data, drv = tree_setup(n_elems=12, n_steps=6, alpha=0.6, noise=noise)
    if kind == "ensemble":
        drv = gaussian_driver(grid, 40, seed=5)
    rng = np.random.default_rng(4)
    U = oracles.process(drv, [
        rng.standard_normal((oracles.n_scenarios(drv, n), space.dim)) for n in range(grid.n_steps)
    ])
    X = solve_forward(data, drv, U)
    got, ref = (zeros_process(drv, space.dim, grid.n_steps - 1) for _ in range(2))
    _sweep(data, drv, X, offset, got)
    oracles.copying_sweep(data, drv, oracles.bit_reverse(X), offset, ref)
    for g, r in zip(oracles.bit_reverse(got).values, ref.values, strict=True):
        assert_array_equal(g, r)
