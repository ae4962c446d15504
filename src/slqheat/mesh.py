"""P1 finite elements on (0, 1) with homogeneous Dirichlet conditions.

Everything the space-time scheme needs from the spatial side lives here:
mass and stiffness matrices, the generalized eigenpairs that diagonalize
the discrete Laplacian, and the Ritz projection of the data.

A function in the FE space V_h has two coefficient vectors of length
d = n_elems - 1: its interior nodal values v (boundary values are
identically zero) and its coordinates c = V^T M v in the M-orthonormal
eigenbasis.  The projection returns nodal values; the space-time scheme works
in eigen coordinates, where the implicit Euler step is diagonal and the
L2 norm is the euclidean norm of c.  Batches of coefficient vectors are
stacked along the first axis, shape (n_scenarios, d).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

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
    mass, stiffness : ndarray, shape (d, d)
        Tridiagonal mass matrix M and stiffness matrix A (dense storage;
        d stays small enough that dense BLAS wins).
    eigvals : ndarray, shape (d,)
        Generalized eigenvalues of A v = lambda M v, ascending.  These are
        the eigenvalues of -Laplace_h.
    eigvecs : ndarray, shape (d, d)
        Columns are the M-orthonormal eigenvectors.
    """

    n_elems: int
    h: float
    nodes: np.ndarray
    mass: np.ndarray
    stiffness: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    _vt_mass: np.ndarray = field(repr=False, default=None)

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

    Eigenpairs of the pencil (A, M) are computed eagerly; the columns of
    ``eigvecs`` satisfy V^T M V = I, so the discrete Laplacian acts as
    multiplication by -eigvals on eigenbasis coefficients.

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
    d = n_elems - 1
    h = 1.0 / n_elems
    nodes = h * np.arange(1, n_elems)

    main_m = np.full(d, 4.0 * h / 6.0)
    off_m = np.full(d - 1, h / 6.0)
    mass = np.diag(main_m) + np.diag(off_m, 1) + np.diag(off_m, -1)

    main_a = np.full(d, 2.0 / h)
    off_a = np.full(d - 1, -1.0 / h)
    stiffness = np.diag(main_a) + np.diag(off_a, 1) + np.diag(off_a, -1)

    eigvals, eigvecs = eigh(stiffness, mass)

    space = FemSpace(
        n_elems=n_elems,
        h=h,
        nodes=nodes,
        mass=mass,
        stiffness=stiffness,
        eigvals=eigvals,
        eigvecs=eigvecs,
    )
    space._vt_mass = eigvecs.T @ mass
    return space


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

    Solves A c = b with b_j = (f', phi_j'); only the derivative of the
    projected function enters.  Exact for functions already in V_h and
    stable in the H1 seminorm.

    Parameters
    ----------
    space : FemSpace
    f_prime : callable
        Vectorized derivative of the target function.

    Returns
    -------
    ndarray, shape (d,)
    """
    pts, wts = _quad_points(space)
    fv = f_prime(pts) * wts
    h = space.h
    per_elem = fv.sum(axis=1)
    b = np.zeros(space.dim)
    # phi_j' = +1/h on element j-1 and -1/h on element j (node j = right
    # endpoint of element j-1)
    b += per_elem[:-1] / h
    b -= per_elem[1:] / h
    return np.linalg.solve(space.stiffness, b)


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
