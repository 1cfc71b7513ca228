"""Dense symmetric-matrix primitives shared by the samplers.

Everything operates on plain float64 numpy arrays.  Matrices handled here
are symmetric by contract; every operation that returns a matrix builds it
exactly symmetric so asymmetry cannot accumulate over long Gibbs runs.
"""

import numpy as np
from scipy.linalg import lapack

# Cholesky factor diagonal entries must exceed this for a matrix to count
# as positive definite.
PD_TOL = 1e-12


def check_symmetric(M, name="matrix"):
    """Validate and return a square, exactly symmetric float array."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.array_equal(M, M.T):
        raise ValueError(f"{name} is not symmetric")
    return M


def cholesky_in_place(A):
    """Lower Cholesky factor of the symmetric A, computed in A's memory.

    Only the lower triangle of A is read; A should be Fortran-ordered (such
    as the transpose of a C-ordered array), or LAPACK works on a copy.  The
    factor overwrites that triangle and the strict upper triangle is left
    as it was.  Returns the factor if every diagonal entry exceeds PD_TOL,
    otherwise None: "not positive definite", not an error.
    """
    L, info = lapack.dpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"invalid matrix passed to dpotrf (info={info})")
    # A NaN minimum fails the comparison, so non-finite input is rejected.
    if not L.diagonal().min() > PD_TOL:
        return None
    return L


def pd_check(M):
    """Cholesky-based positive definiteness test.

    Returns the lower Cholesky factor, with a zero upper triangle, if every
    factor diagonal entry exceeds PD_TOL, otherwise None.  Never mutates M;
    a None result means "not positive definite", not an error.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    # A Fortran-ordered copy of M's lower triangle with a zero strict upper
    # triangle, so the factor comes out clean.
    return cholesky_in_place(np.triu(M.T).T)


def invert_from_factor(L):
    """Inverse of L @ L.T given its lower Cholesky factor, exactly symmetric.

    Only the lower triangle of L is read.
    """
    inv, info = lapack.dpotri(L, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotri failed with info={info}")
    # dpotri fills the lower triangle and leaves L's strict upper triangle
    # as it was, so that is dropped before the lower one is mirrored.
    inv = np.tril(inv)
    inv += np.tril(inv, -1).T
    return inv


def spd_inverse(M):
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    L = pd_check(M)
    if L is None:
        raise ValueError("matrix not positive definite")
    return invert_from_factor(L)


def save_matrix_csv(M, path):
    """Write a matrix as full (not triangular) CSV with round-trip precision."""
    np.savetxt(path, np.asarray(M, dtype=float), delimiter=",", fmt="%.17g")


def load_matrix_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)
