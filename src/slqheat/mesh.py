"""P1 finite elements on (0, 1) with homogeneous Dirichlet conditions.

Everything the space-time scheme needs from the spatial side lives here:
the eigenpairs of the P1 pencil (A, M) that diagonalize the discrete
Laplacian, and the Ritz projection of the data.  No matrix is assembled:
on the uniform mesh A and M share the sine eigenvectors, so the
eigenpairs have a closed form free of cancellation (Strang & Fix, *An
Analysis of the Finite Element Method*, 1973): with theta_k = k pi h and
s_k = sin^2(theta_k / 2),

    lambda_k = (12 / h^2) s_k / (3 - 2 s_k),
    V_jk = sin(j theta_k) / sqrt((h / 6)(6 - 4 s_k)(n_elems / 2)).

A function in the FE space V_h has two coefficient vectors of length
d = n_elems - 1: its interior nodal values v (boundary values are
identically zero) and its coordinates c = V^T M v in the M-orthonormal
eigenbasis.  The space-time scheme and the Ritz projection work in eigen
coordinates, where the implicit Euler step is diagonal and the L2 norm is
the euclidean norm of c.  Batches of coefficient vectors are stacked along
the first axis, one row per scenario, shape (rows, d).
"""

from dataclasses import dataclass, field

import numpy as np

# 5-point Gauss-Legendre rule on [0, 1]
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)
_GAUSS_X = 0.5 * (_GAUSS_X + 1.0)
_GAUSS_W = 0.5 * _GAUSS_W


@dataclass
class FemSpace:
    """Interior P1 space on a uniform mesh of (0, 1).

    Attributes
    ----------
    n_elems : int
        Number of elements; the space has dimension d = n_elems - 1.
    h : float
        Mesh width 1 / n_elems.
    nodes : ndarray, shape (d,)
        Interior nodes h, 2h, ..., (n_elems - 1) h.
    eigvals : ndarray, shape (d,)
        Generalized eigenvalues of A v = lambda M v in closed form,
        ascending.  These are the eigenvalues of -Laplace_h.
    eigvecs : ndarray, shape (d, d)
        Columns are the M-orthonormal sine eigenvectors in closed form.
    """

    n_elems: int
    h: float
    nodes: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    _vt_mass: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.n_elems - 1

    # -- coefficient transforms -------------------------------------------

    def to_eigen(self, v):
        """Coefficients in the M-orthonormal eigenbasis: c = V^T M v."""
        return np.asarray(v) @ self._vt_mass.T

    def from_eigen(self, c):
        """Nodal coefficients from eigenbasis coefficients: v = V c."""
        return np.asarray(c) @ self.eigvecs.T


def build_fem_space(n_elems):
    """Assemble the interior P1 space on a uniform mesh with n_elems elements.

    The eigenpairs of the pencil (A, M) come from the closed form in the
    module docstring; the columns of ``eigvecs`` satisfy V^T M V = I, so
    the discrete Laplacian acts as multiplication by -eigvals on eigenbasis
    coefficients.

    Parameters
    ----------
    n_elems : int
        Number of mesh elements, at least 2.

    Returns
    -------
    FemSpace
    """
    if n_elems < 2:
        raise ValueError(f"need n_elems >= 2 for a nonempty interior space, got {n_elems}")
    h = 1.0 / n_elems
    nodes = h * np.arange(1, n_elems)

    # A and M act on sin(j theta_k) as multiplication by (4 / h) s_k and mass_k
    k = np.arange(1, n_elems)
    s = np.sin(np.pi * k / (2 * n_elems)) ** 2
    mass_k = (h / 6.0) * (6.0 - 4.0 * s)
    eigvals = 12.0 * n_elems**2 * s / (3.0 - 2.0 * s)
    # sin(j theta_k) with j k reduced mod 2 n_elems, so no argument exceeds 2 pi
    phase = np.outer(k, k) % (2 * n_elems)
    eigvecs = np.sin(np.pi * phase / n_elems) / np.sqrt(mass_k * (0.5 * n_elems))

    # V^T M = diag(mass_k) V^T, as M V = V diag(mass_k)
    vt_mass = mass_k[:, None] * eigvecs.T
    return FemSpace(n_elems, h, nodes, eigvals, eigvecs, _vt_mass=vt_mass)


def _quad_points(space):
    """Gauss points and weights on every element, shapes (n_elems, 5)."""
    n = space.n_elems
    h = space.h
    left = h * np.arange(n)[:, None]
    pts = left + h * _GAUSS_X[None, :]
    wts = np.broadcast_to(h * _GAUSS_W[None, :], (n, 5))
    return pts, wts


def ritz_project(space, f_prime):
    """Ritz (elliptic) projection onto V_h from the derivative of f.

    Solves A v = b with b_j = (f', phi_j'); only the derivative of the
    projected function enters.  Exact for functions already in V_h and
    stable in the H1 seminorm.  Since A^{-1} = V Lambda^{-1} V^T, the
    eigen coordinates of the solution are c = V^T M v = (V^T b) / lambda.

    Parameters
    ----------
    space : FemSpace
    f_prime : callable
        Vectorized derivative of the target function.

    Returns
    -------
    ndarray, shape (d,)
        Eigen coordinates c of the projection.
    """
    pts, wts = _quad_points(space)
    per_elem = (f_prime(pts) * wts).sum(axis=1)
    # phi_j' = +1/h on element j-1 and -1/h on element j (node j = right
    # endpoint of element j-1)
    b = (per_elem[:-1] - per_elem[1:]) / space.h
    return (b @ space.eigvecs) / space.eigvals


def prolongation_matrix(coarse, fine):
    """Nodal interpolation matrix from a coarse space into a nested fine one.

    Returns P with (P v)_i = v_h-coarse evaluated at the i-th fine node,
    exact for nested uniform meshes.

    Parameters
    ----------
    coarse, fine : FemSpace
        fine.n_elems must be a multiple of coarse.n_elems.

    Returns
    -------
    ndarray, shape (fine.dim, coarse.dim)
    """
    if fine.n_elems % coarse.n_elems != 0:
        raise ValueError(
            f"meshes are not nested: {coarse.n_elems} does not divide {fine.n_elems}"
        )
    hc = coarse.h
    # hat_j(x) = max(0, 1 - |x - j*hc| / hc) for coarse node j
    x = fine.nodes[:, None]
    xj = coarse.nodes[None, :]
    vals = np.maximum(0.0, 1.0 - np.abs(x - xj) / hc)
    return vals
