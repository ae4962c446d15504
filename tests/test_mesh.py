import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from oracles import (
    dense_a0,
    discrete_laplacian_apply,
    eval_fem,
    h1_seminorm,
    l2_inner,
    l2_norm,
    l2_norm_sq_batch,
)
from slqheat.forward import a0_apply
from slqheat.mesh import build_fem_space, l2_project, prolongation_matrix, ritz_project


def hat(space, j, x):
    """Reference evaluation of the j-th interior hat function (0-based)."""
    xj = space.nodes[j]
    return np.maximum(0.0, 1.0 - np.abs(x - xj) / space.h)


def test_build_rejects_degenerate_mesh():
    with pytest.raises(ValueError):
        build_fem_space(1)


def test_matrices_match_stencils():
    space = build_fem_space(8)
    h = 1.0 / 8.0
    d = 7
    m_ref = np.zeros((d, d))
    a_ref = np.zeros((d, d))
    for i in range(d):
        m_ref[i, i] = 4 * h / 6
        a_ref[i, i] = 2 / h
        if i + 1 < d:
            m_ref[i, i + 1] = m_ref[i + 1, i] = h / 6
            a_ref[i, i + 1] = a_ref[i + 1, i] = -1 / h
    assert_allclose(space.mass, m_ref, rtol=0, atol=1e-15)
    assert_allclose(space.stiffness, a_ref, rtol=0, atol=1e-13)


def test_eigenvalues_match_closed_form():
    # generalized eigenvalues of the P1 pencil on a uniform mesh:
    # lambda_i = (6/h^2) (1 - cos(i pi h)) / (2 + cos(i pi h))
    for n in (4, 16, 33):
        space = build_fem_space(n)
        h = space.h
        i = np.arange(1, n)
        lam_ref = (6.0 / h**2) * (1.0 - np.cos(i * np.pi * h)) / (2.0 + np.cos(i * np.pi * h))
        assert_allclose(space.eigvals, lam_ref, rtol=1e-12)
        assert space.eigvals.max() <= 12.0 / h**2 + 1e-9


def test_eigenvectors_m_orthonormal():
    space = build_fem_space(32)
    V = space.eigvecs
    gram = V.T @ space.mass @ V
    assert np.abs(gram - np.eye(space.dim)).max() <= 1e-12


def test_eigen_transforms_round_trip():
    space = build_fem_space(16)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(space.dim)
    assert_allclose(space.from_eigen(space.to_eigen(v)), v, atol=1e-12)
    batch = rng.standard_normal((5, space.dim))
    assert_allclose(space.from_eigen(space.to_eigen(batch)), batch, atol=1e-12)
    # Parseval: the M-norm equals the euclidean norm of eigen coefficients
    assert_allclose(l2_norm(space, v), np.linalg.norm(space.to_eigen(v)), rtol=1e-12)


def test_l2_project_against_quad_loads():
    # oracle: per-hat loads from adaptive quadrature + dense solve
    space = build_fem_space(8)
    f = lambda x: np.sin(np.pi * x)
    b = np.array(
        [quad(lambda x: f(x) * hat(space, j, x), 0.0, 1.0, epsabs=1e-14)[0] for j in range(space.dim)]
    )
    c_ref = np.linalg.solve(space.mass, b)
    assert_allclose(l2_project(space, f), c_ref, atol=1e-10)


def test_l2_project_is_orthogonal_projection():
    # the residual f - P_h f is M-orthogonal to V_h: (f, phi_j) = (P_h f, phi_j)
    space = build_fem_space(8)
    f = lambda x: np.exp(x) * np.sin(2 * np.pi * x)
    c = l2_project(space, f)
    for j in range(space.dim):
        load = quad(lambda x: f(x) * hat(space, j, x), 0.0, 1.0, epsabs=1e-14)[0]
        assert abs((space.mass @ c)[j] - load) < 1e-10


def test_l2_project_reproduces_fem_functions():
    space = build_fem_space(8)
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(space.dim)
    proj = l2_project(space, lambda x: eval_fem(space, coeffs, x))
    assert_allclose(proj, coeffs, atol=1e-12)


def test_ritz_project_reproduces_fem_functions():
    space = build_fem_space(8)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(space.dim)
    full = np.concatenate(([0.0], coeffs, [0.0]))
    slopes = np.diff(full) / space.h

    def fprime(x):
        k = np.clip((x / space.h).astype(int), 0, space.n_elems - 1)
        return slopes[k]

    assert_allclose(ritz_project(space, fprime), coeffs, atol=1e-12)


def test_ritz_project_h1_stable():
    # |R_h f|_1 <= |f|_1 with |sin(pi x)|_1 = pi / sqrt(2)
    space = build_fem_space(16)
    r = ritz_project(space, lambda x: np.pi * np.cos(np.pi * x))
    assert h1_seminorm(space, r) <= np.pi / np.sqrt(2.0) + 1e-12


def test_ritz_galerkin_orthogonality():
    # (f' - (R_h f)', phi_j') = 0 for every hat
    space = build_fem_space(8)
    fp = lambda x: np.pi * np.cos(np.pi * x)
    c = ritz_project(space, fp)
    load = np.array(
        [
            quad(lambda x: fp(x) * dhat, space.nodes[j] - space.h, space.nodes[j], epsabs=1e-14)[0]
            for j, dhat in ((j, 1.0 / space.h) for j in range(space.dim))
        ]
    ) + np.array(
        [
            quad(lambda x: fp(x) * (-1.0 / space.h), space.nodes[j], space.nodes[j] + space.h, epsabs=1e-14)[0]
            for j in range(space.dim)
        ]
    )
    assert_allclose(space.stiffness @ c, load, atol=1e-12)


def test_laplacian_commutes_with_ritz():
    # Laplace_h R_h f = P_h (f'') for smooth f vanishing on the boundary
    space = build_fem_space(16)
    for k in (1, 2, 3):
        fp = lambda x: k * np.pi * np.cos(k * np.pi * x)
        fpp = lambda x: -((k * np.pi) ** 2) * np.sin(k * np.pi * x)
        lhs = discrete_laplacian_apply(space, ritz_project(space, fp))
        rhs = l2_project(space, fpp)
        assert_allclose(lhs, rhs, atol=1e-10)


def test_discrete_laplacian_diagonal_in_eigenbasis():
    space = build_fem_space(12)
    for i in (0, 3, space.dim - 1):
        v = space.eigvecs[:, i]
        assert_allclose(discrete_laplacian_apply(space, v), -space.eigvals[i] * v, rtol=1e-9, atol=1e-9)


def test_batch_norms_match_scalar():
    space = build_fem_space(7)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((6, space.dim))
    sq = l2_norm_sq_batch(space, v)
    for i in range(6):
        assert_allclose(np.sqrt(sq[i]), l2_norm(space, v[i]), rtol=1e-12)
    assert_allclose(l2_inner(space, v[0], v[1]), v[0] @ space.mass @ v[1], rtol=1e-12)


def test_prolongation_exact_on_nested_meshes():
    coarse = build_fem_space(8)
    fine = build_fem_space(32)
    P = prolongation_matrix(coarse, fine)
    rng = np.random.default_rng(6)
    c = rng.standard_normal(coarse.dim)
    assert_allclose(P @ c, eval_fem(coarse, c, fine.nodes), atol=1e-12)


def test_prolongation_rejects_non_nested():
    with pytest.raises(ValueError):
        prolongation_matrix(build_fem_space(6), build_fem_space(8))


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 5, 10, 16]),
    tau=st.floats(1e-4, 1.0),
    rows=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_eigen_step_matches_dense_a0(n, tau, rows, seed):
    # the elementwise step on eigen coordinates is (M + tau A)^{-1} M on nodal values
    space = build_fem_space(n)
    v = np.random.default_rng(seed).standard_normal((rows, space.dim))
    w = space.from_eigen(a0_apply(space, tau, space.to_eigen(v)))
    assert_allclose(w, v @ dense_a0(space, tau).T, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([4, 8, 16]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_eigen_step_is_m_contraction(n, seed):
    # the implicit Euler step never increases the M-norm of the nodal values
    space = build_fem_space(n)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(space.dim)
    tau = 0.1
    w = space.from_eigen(a0_apply(space, tau, space.to_eigen(v)))
    assert l2_norm(space, w) <= l2_norm(space, v) * (1 + 1e-12)
