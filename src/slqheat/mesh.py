"""P1 finite elements on (0, 1) with homogeneous Dirichlet conditions.

Everything the space-time scheme needs from the spatial side lives here:
the eigenpairs of the P1 pencil (A, M) that diagonalize the discrete
Laplacian, the Ritz projection of the data, and the nodal prolongation
between nested meshes in eigen coordinates.  No matrix is assembled:
on the uniform mesh A and M share the sine eigenvectors, so the
eigenpairs have a closed form free of cancellation (Strang & Fix, *An
Analysis of the Finite Element Method*, 1973): with theta_k = k pi h and
s_k = sin^2(theta_k / 2),

    lambda_k = (12 / h^2) s_k / (3 - 2 s_k),
    V_jk = sin(j theta_k) / sqrt((h / 6)(6 - 4 s_k)(n_elems / 2)).

V is not formed either: it is a sine transform (DST-I) with scaled columns,
one real FFT in O(d log d) (Van Loan, *Computational Frameworks for the FFT*, 1992).

A function in the FE space V_h has two coefficient vectors of length
d = n_elems - 1: its interior nodal values v (boundary values are
identically zero) and its coordinates c = V^T M v in the M-orthonormal
eigenbasis.  Everything here works in eigen coordinates, where the
implicit Euler step is diagonal, the L2 norm is the euclidean norm of c
and the nodal prolongation between meshes has one entry per fine mode
(:func:`alias_coefficients`).  Batches of coefficient vectors are
stacked along the first axis, one row per scenario, shape (rows, d).
"""

from dataclasses import dataclass

import numpy as np

# 5-point Gauss-Legendre rule on [0, 1], ascending, from its closed form on [-1, 1]
_GAUSS_X = np.sqrt(5.0 + np.array([2.0, -2.0]) * np.sqrt(10.0 / 7.0)) / 3.0  # outer, inner
_GAUSS_X = 0.5 * (np.concatenate([-_GAUSS_X, [0.0], _GAUSS_X[::-1]]) + 1.0)
_GAUSS_W = (322.0 + np.array([-13.0, 13.0]) * np.sqrt(70.0)) / 900.0  # outer, inner
_GAUSS_W = 0.5 * np.concatenate([_GAUSS_W, [128.0 / 225.0], _GAUSS_W[::-1]])


def _sine_transform(x):
    """S(x)_k = sum_j x_j sin(pi j k / n), j, k = 1..n - 1, over the last axis: the real FFT
    of [0, x, 0, -x reversed] is -2i S(x) at 1..n - 1 (Van Loan, 1992)."""
    zero = np.zeros(x.shape[:-1] + (1,))
    ext = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(ext).imag[..., 1:-1]


@dataclass
class FemSpace:
    """Interior P1 space on a uniform mesh of (0, 1).

    Attributes
    ----------
    n_elems : int
        Number of elements; the space has dimension d = n_elems - 1.
    h : float
        Mesh width 1 / n_elems.
    eigvals : ndarray, shape (d,)
        Generalized eigenvalues of A v = lambda M v in closed form,
        ascending.  These are the eigenvalues of -Laplace_h.
    norms : ndarray, shape (d,)
        M-norms of the sine vectors (sin(j theta_k))_j, so that
        V_jk = sin(j theta_k) / norms[k]; V itself is never formed.
    """

    n_elems: int
    h: float
    eigvals: np.ndarray
    norms: np.ndarray

    @property
    def dim(self):
        return self.n_elems - 1

    def from_eigen(self, c):
        """Nodal coefficients from eigenbasis coefficients: v = V c = S(c / norms)."""
        return _sine_transform(np.asarray(c) / self.norms)


def build_fem_space(n_elems):
    """Assemble the interior P1 space on a uniform mesh with n_elems elements.

    The eigenpairs of the pencil (A, M) come from the closed form in the
    module docstring; ``norms`` scales the sine vectors so that V^T M V = I,
    and the discrete Laplacian acts as multiplication by -eigvals on
    eigenbasis coefficients.

    Parameters
    ----------
    n_elems : int
        Number of mesh elements, at least 2 (a NumPy integer is taken as an int).

    Returns
    -------
    FemSpace
    """
    if isinstance(n_elems, bool) or not isinstance(n_elems, (int, np.integer)):
        raise ValueError(f"n_elems must be an integer, got {n_elems!r}")
    if n_elems < 2:
        raise ValueError(f"need n_elems >= 2 for a nonempty interior space, got {n_elems}")
    h = 1.0 / n_elems

    # A and M act on sin(j theta_k) as multiplication by (4 / h) s_k and mass_k,
    # and sum_j sin^2(j theta_k) = n_elems / 2
    k = np.arange(1, n_elems)
    s = np.sin(np.pi * k / (2 * n_elems)) ** 2
    mass_k = (h / 6.0) * (6.0 - 4.0 * s)
    eigvals = 12.0 * n_elems**2 * s / (3.0 - 2.0 * s)
    return FemSpace(int(n_elems), h, eigvals, np.sqrt(mass_k * (0.5 * n_elems)))


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
    eigen coordinates of the solution are c = V^T M v = S(b) / (norms lambda).

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
    return _sine_transform(b) / (space.norms * space.eigvals)


def alias_coefficients(coarse, fine):
    """Eigen coordinates of the nodal prolongation P of a coarse space into a nested fine one.

    P commutes with coarse shifts, so C = V_f^T M_f P V_c pairs fine sine
    mode r with the coarse mode k = +-r (mod 2 n_c) that it matches at the
    coarse nodes, and with none when n_c divides r.  With m = n_f / n_c,
    theta = r pi / n_f and each mode's s = sin^2(theta / 2),

        C_rk = +-(sin(m theta_r / 2) / (m sin(theta_r / 2)))^2 sqrt((3 - 2 s_r) / (3 - 2 s_k)),

    + when r mod 2 n_c < n_c.  Per coarse mode, sum_r C_rk^2 = 1 and
    sum_r lambda_r C_rk^2 = lambda_k: P keeps L2 norms and H1 seminorms.

    Returns (partner, c), shape (fine.dim,) each: C[r, partner[r]] = c[r],
    with c = 0 (and some valid partner) for the unpaired modes.  Raises
    ValueError unless coarse.n_elems divides fine.n_elems.
    """
    n_c, n_f = coarse.n_elems, fine.n_elems
    if n_f % n_c != 0:
        raise ValueError(f"meshes are not nested: {n_c} does not divide {n_f}")
    r = np.arange(1, n_f)
    q = r % (2 * n_c)  # sin^2(m theta_r / 2) has period 2 n_c in r
    k = np.minimum(q, 2 * n_c - q)
    s_r = np.sin(np.pi * r / (2 * n_f)) ** 2
    s_k = np.sin(np.pi * k / (2 * n_c)) ** 2
    c = np.sin(np.pi * q / (2 * n_c)) ** 2 / (s_r * (n_f // n_c) ** 2)
    c *= np.sqrt((3.0 - 2.0 * s_r) / (3.0 - 2.0 * s_k))
    c = np.where(q < n_c, c, -c) * (q % n_c != 0)
    return np.clip(k, 1, n_c - 1) - 1, c
