"""Dense symmetric-matrix primitives shared by the samplers.

Everything operates on plain float64 numpy arrays.  Matrices handled here
are symmetric by contract; every operation that returns a matrix builds it
exactly symmetric so asymmetry cannot accumulate over long Gibbs runs.
"""

import functools

import numpy as np
from scipy.linalg import lapack

# Cholesky factor diagonal entries must exceed this for a matrix to count
# as positive definite.
PD_TOL = 1e-12

# LAPACK routines bound once and called positionally, as the sampler's
# BLAS ones are (see its module docstring): f2py parses keyword arguments
# much more slowly.  Above each, the f2py signature its calls follow.
# c,info = dpotrf(a,[lower,clean,overwrite_a])
_dpotrf = lapack.dpotrf
# inv_a,info = dpotri(c,[lower,overwrite_c])
_dpotri = lapack.dpotri


def check_symmetric(M, name="matrix"):
    """Validate and return a square, finite, exactly symmetric float array.

    A non-finite entry is named before symmetry is tested: NaN is unequal
    to itself, so it would otherwise read as asymmetry.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        raise ValueError(f"{name} has a non-finite entry at {tuple(bad[0].tolist())}")
    if not np.array_equal(M, M.T):
        raise ValueError(f"{name} is not symmetric")
    return M


@functools.lru_cache
def strict_lower(p):
    """Read-only boolean mask of the strict lower triangle of a p x p
    matrix, built once per p and shared by every caller."""
    mask = np.tri(p, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def cholesky_in_place(A, clean=0):
    """Lower Cholesky factor of the symmetric A, computed in A's memory.

    Only the lower triangle of A is read; A should be Fortran-ordered (such
    as the transpose of a C-ordered array), or LAPACK works on a copy.  The
    factor overwrites that triangle; the strict upper triangle is left as
    it was, or zeroed if clean is 1.  Returns the factor if dpotrf succeeds,
    otherwise None: "not positive definite", not an error.
    """
    L, info = _dpotrf(A, 1, clean, 1)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"invalid matrix passed to dpotrf (info={info})")
    # No diagonal scan here: OpenBLAS dpotrf returns info = 0 on input
    # holding a NaN, so a NaN survives into the factor.  pd_check scans the
    # factor's diagonal; the sampler's per-column factor of C^{-1} is
    # guarded by a finiteness test on the column's result instead (see the
    # sampler module docstring).
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
    # Factored in a Fortran-ordered copy of M, never a view of it, with the
    # factor's upper triangle zeroed by dpotrf's clean.
    L = cholesky_in_place(np.array(M, order="F"), 1)
    # The NaN guard: OpenBLAS dpotrf returns info = 0 on input holding a
    # NaN, on or off the diagonal, and a NaN reaches the factor's diagonal,
    # whose NaN minimum fails the comparison.
    if L is None or not L.diagonal().min() > PD_TOL:
        return None
    return L


def invert_from_factor(L):
    """Inverse of L @ L.T given its lower Cholesky factor, exactly symmetric.

    Only the lower triangle of L is read.  The result is a C-ordered array,
    whatever L's order: the sampler updates the Sigma it returns in place
    through its transpose, which BLAS can do only on a C-ordered array.
    """
    inv, info = _dpotri(L, 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotri failed with info={info}")
    # dpotri fills the lower triangle of a Fortran-ordered array and leaves
    # L's strict upper triangle there as it was.  Its transpose is
    # C-ordered, and the lower triangle of that transpose, which is the
    # stale one, is overwritten with the lower triangle of the inverse.
    sym = inv.T
    np.copyto(sym, inv, where=strict_lower(inv.shape[0]))
    return sym


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
