import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import eigh

from oracles import (
    a0_apply,
    cross_gramian,
    dense_a0,
    discrete_laplacian_apply,
    eigvecs,
    eval_fem,
    h1_seminorm,
    l2_inner,
    l2_norm,
    l2_norm_sq_batch,
    l2_project,
    mass,
    nodal_ritz_project,
    nodes,
    prolongation_matrix,
    ritz_load,
    stiffness,
    to_eigen,
)
from slqheat.mesh import _GAUSS_W, _GAUSS_X, alias_coefficients, build_fem_space, ritz_project


def hat(space, j, x):
    """Reference evaluation of the j-th interior hat function (0-based)."""
    xj = nodes(space)[j]
    return np.maximum(0.0, 1.0 - np.abs(x - xj) / space.h)


def test_build_rejects_degenerate_mesh():
    with pytest.raises(ValueError):
        build_fem_space(1)


@pytest.mark.parametrize("n_elems", [2.5, True, 4.0])
def test_build_refuses_an_element_count_that_is_not_an_integer(n_elems):
    # 4.0 built a space of dim 3.0, on which the forward solve died with a TypeError
    with pytest.raises(ValueError, match="n_elems must be an integer"):
        build_fem_space(n_elems)


def test_build_resolves_a_numpy_element_count_to_int():
    space, ref = build_fem_space(np.int64(4)), build_fem_space(4)
    assert type(space.n_elems) is int and space.dim == 3
    assert_allclose(space.eigvals, ref.eigvals, rtol=0, atol=0)


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
    assert_allclose(mass(space), m_ref, rtol=0, atol=1e-15)
    assert_allclose(stiffness(space), a_ref, rtol=0, atol=1e-13)


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


CLOSED_FORM_MESHES = (2, 3, 8, 33, 256, 1024)


@pytest.mark.parametrize("n", CLOSED_FORM_MESHES)
def test_closed_form_eigenpairs_solve_the_pencil(n):
    space = build_fem_space(n)
    V, lam = eigvecs(space), space.eigvals
    assert np.abs(V.T @ mass(space) @ V - np.eye(space.dim)).max() <= 2e-13
    residual = stiffness(space) @ V - (mass(space) @ V) * lam
    assert np.abs(residual).max() <= 1e-12 * lam.max()
    assert_allclose(to_eigen(space, V.T), np.eye(space.dim), rtol=0, atol=2e-13)


@pytest.mark.parametrize("n", CLOSED_FORM_MESHES)
def test_closed_form_eigenvalues_match_extended_precision(n):
    # the same formula in extended precision; a few ulp of float rounding remain
    k = np.arange(1, n, dtype=np.longdouble)
    s = np.sin(k * np.arccos(np.longdouble(-1)) / (2 * n)) ** 2
    lam = 12 * np.longdouble(n) ** 2 * s / (3 - 2 * s)
    rel = np.abs((build_fem_space(n).eigvals - lam) / lam).astype(float)
    assert rel.max() <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("n", (4, 33, 256))
def test_closed_form_agrees_with_eigh(n):
    # cross-check against the dense generalized eigensolver, up to the sign of each vector
    space = build_fem_space(n)
    lam, U = eigh(stiffness(space), mass(space))
    assert_allclose(space.eigvals, lam, rtol=0, atol=1e-13 * lam.max())
    overlap = to_eigen(space, U.T)
    assert_allclose(np.abs(overlap), np.eye(space.dim), rtol=0, atol=1e-11)


@pytest.mark.parametrize("n", (8, 256, 1024))
def test_ritz_project_in_eigen_coordinates_matches_nodal_solve(n):
    space = build_fem_space(n)
    fp = lambda x: 0.7 * np.pi * np.cos(np.pi * x) + 0.3 * np.exp(x)
    assert_allclose(
        ritz_project(space, fp), to_eigen(space, nodal_ritz_project(space, fp)), rtol=0, atol=1e-11
    )


def test_gauss_rule_matches_leggauss():
    x, w = np.polynomial.legendre.leggauss(5)
    assert_allclose(_GAUSS_X, 0.5 * (x + 1.0), rtol=0, atol=1e-15)
    assert_allclose(_GAUSS_W, 0.5 * w, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", (2, 3, 5, 8, 9, 255, 256, 1024))
def test_sine_transform_matches_dense_basis(n):
    # ritz_project applies V^T and from_eigen V by one real FFT; the dense V is the oracle
    space = build_fem_space(n)
    V = eigvecs(space)
    fp = lambda x: 0.7 * np.pi * np.cos(np.pi * x) + 0.3 * np.exp(x)
    ref = (ritz_load(space, fp) @ V) / space.eigvals
    assert np.abs(ritz_project(space, fp) - ref).max() <= 1e-13 * np.abs(ref).max()
    rng = np.random.default_rng(n)
    for c in (rng.standard_normal(space.dim), rng.standard_normal((6, space.dim)),
              rng.standard_normal((2, 3, space.dim))):
        ref = c @ V.T
        assert space.from_eigen(c).shape == c.shape
        assert np.abs(space.from_eigen(c) - ref).max() <= 1e-13 * np.abs(ref).max()
        assert_allclose(to_eigen(space, space.from_eigen(c)), c, rtol=0, atol=1e-12)


def test_space_and_projection_hold_no_dense_basis():
    # a dense (4095, 4095) basis alone is 134 MB; the transform needs a few rows of scratch
    fp = lambda x: np.pi * np.cos(np.pi * x)
    build_fem_space(4).from_eigen(np.ones(3))  # import the FFT module outside the trace
    rows = np.random.default_rng(0).standard_normal((4, 4095))
    tracemalloc.start()
    try:
        space = build_fem_space(4096)
        ritz_project(space, fp)
        space.from_eigen(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_eigenvectors_m_orthonormal():
    space = build_fem_space(32)
    V = eigvecs(space)
    gram = V.T @ mass(space) @ V
    assert np.abs(gram - np.eye(space.dim)).max() <= 1e-12


def test_eigen_transforms_round_trip():
    space = build_fem_space(16)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(space.dim)
    assert_allclose(space.from_eigen(to_eigen(space, v)), v, atol=1e-12)
    batch = rng.standard_normal((5, space.dim))
    assert_allclose(space.from_eigen(to_eigen(space, batch)), batch, atol=1e-12)
    # Parseval: the M-norm equals the euclidean norm of eigen coefficients
    assert_allclose(l2_norm(space, v), np.linalg.norm(to_eigen(space, v)), rtol=1e-12)


def test_l2_project_against_quad_loads():
    # oracle: per-hat loads from adaptive quadrature + dense solve
    space = build_fem_space(8)
    f = lambda x: np.sin(np.pi * x)
    b = np.array(
        [quad(lambda x: f(x) * hat(space, j, x), 0.0, 1.0, epsabs=1e-14)[0] for j in range(space.dim)]
    )
    c_ref = np.linalg.solve(mass(space), b)
    assert_allclose(l2_project(space, f), c_ref, atol=1e-10)


def test_l2_project_is_orthogonal_projection():
    # the residual f - P_h f is M-orthogonal to V_h: (f, phi_j) = (P_h f, phi_j)
    space = build_fem_space(8)
    f = lambda x: np.exp(x) * np.sin(2 * np.pi * x)
    c = l2_project(space, f)
    for j in range(space.dim):
        load = quad(lambda x: f(x) * hat(space, j, x), 0.0, 1.0, epsabs=1e-14)[0]
        assert abs((mass(space) @ c)[j] - load) < 1e-10


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

    assert_allclose(space.from_eigen(ritz_project(space, fprime)), coeffs, atol=1e-12)


def test_ritz_project_h1_stable():
    # |R_h f|_1 <= |f|_1 with |sin(pi x)|_1 = pi / sqrt(2)
    space = build_fem_space(16)
    r = space.from_eigen(ritz_project(space, lambda x: np.pi * np.cos(np.pi * x)))
    assert h1_seminorm(space, r) <= np.pi / np.sqrt(2.0) + 1e-12


def test_ritz_galerkin_orthogonality():
    # (f' - (R_h f)', phi_j') = 0 for every hat
    space = build_fem_space(8)
    fp = lambda x: np.pi * np.cos(np.pi * x)
    c = space.from_eigen(ritz_project(space, fp))
    xs = nodes(space)
    load = np.array(
        [
            quad(lambda x: fp(x) * dhat, xs[j] - space.h, xs[j], epsabs=1e-14)[0]
            for j, dhat in ((j, 1.0 / space.h) for j in range(space.dim))
        ]
    ) + np.array(
        [
            quad(lambda x: fp(x) * (-1.0 / space.h), xs[j], xs[j] + space.h, epsabs=1e-14)[0]
            for j in range(space.dim)
        ]
    )
    assert_allclose(stiffness(space) @ c, load, atol=1e-12)


def test_laplacian_commutes_with_ritz():
    # Laplace_h R_h f = P_h (f'') for smooth f vanishing on the boundary
    space = build_fem_space(16)
    for k in (1, 2, 3):
        fp = lambda x: k * np.pi * np.cos(k * np.pi * x)
        fpp = lambda x: -((k * np.pi) ** 2) * np.sin(k * np.pi * x)
        lhs = discrete_laplacian_apply(space, space.from_eigen(ritz_project(space, fp)))
        rhs = l2_project(space, fpp)
        assert_allclose(lhs, rhs, atol=1e-10)


def test_discrete_laplacian_diagonal_in_eigenbasis():
    space = build_fem_space(12)
    for i in (0, 3, space.dim - 1):
        v = eigvecs(space)[:, i]
        assert_allclose(discrete_laplacian_apply(space, v), -space.eigvals[i] * v, rtol=1e-9, atol=1e-9)


def test_batch_norms_match_scalar():
    space = build_fem_space(7)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((6, space.dim))
    sq = l2_norm_sq_batch(space, v)
    for i in range(6):
        assert_allclose(np.sqrt(sq[i]), l2_norm(space, v[i]), rtol=1e-12)
    assert_allclose(l2_inner(space, v[0], v[1]), v[0] @ mass(space) @ v[1], rtol=1e-12)


def test_prolongation_exact_on_nested_meshes():
    coarse = build_fem_space(8)
    fine = build_fem_space(32)
    P = prolongation_matrix(coarse, fine)
    rng = np.random.default_rng(6)
    c = rng.standard_normal(coarse.dim)
    assert_allclose(P @ c, eval_fem(coarse, c, nodes(fine)), atol=1e-12)


def test_prolongation_rejects_non_nested():
    with pytest.raises(ValueError):
        prolongation_matrix(build_fem_space(6), build_fem_space(8))
    with pytest.raises(ValueError, match="not nested"):
        alias_coefficients(build_fem_space(6), build_fem_space(8))


@pytest.mark.parametrize(
    "n_fine, n_coarse", [(24, 8), (15, 5), (35, 7), (9, 3), (4, 4), (256, 64), (1024, 64)]
)
def test_cross_gramian_pairs_each_fine_mode_with_its_alias(n_fine, n_coarse):
    # C = V_f^T M_f P V_c couples fine sine mode r only with the coarse mode
    # k = +-r (mod 2 n_coarse) that it matches at the coarse nodes; a fine
    # mode whose r is a multiple of n_coarse vanishes there and has no partner
    fine, coarse = build_fem_space(n_fine), build_fem_space(n_coarse)
    C = cross_gramian(coarse, fine)
    r = np.arange(1, n_fine)
    q = r % (2 * n_coarse)
    alias = np.minimum(q, 2 * n_coarse - q)
    partner = (alias[:, None] == np.arange(1, n_coarse)) & (q % n_coarse != 0)[:, None]
    assert np.abs(C[~partner]).max() <= 2e-15
    assert np.abs(C[partner]).min() > 1e-9
    assert partner.sum() == fine.dim - np.isin(q, (0, n_coarse)).sum()
    assert np.abs(C.T @ C - np.eye(coarse.dim)).max() <= 1e-13
    # the closed form is that one entry per row; per coarse mode, P keeps the
    # L2 norm (sum c^2 = 1) and the H1 seminorm (sum lambda_f c^2 = lambda_c)
    k, c = alias_coefficients(coarse, fine)
    closed = np.zeros_like(C)
    closed[np.arange(fine.dim), k] = c
    assert np.abs(closed - C).max() <= 1e-13
    assert_allclose(np.bincount(k, c**2, coarse.dim), 1.0, rtol=1e-13)
    assert_allclose(np.bincount(k, fine.eigvals * c**2, coarse.dim), coarse.eigvals, rtol=1e-13)


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
    w = space.from_eigen(a0_apply(space, tau, to_eigen(space, v)))
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
    w = space.from_eigen(a0_apply(space, tau, to_eigen(space, v)))
    assert l2_norm(space, w) <= l2_norm(space, v) * (1 + 1e-12)
