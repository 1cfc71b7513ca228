"""Dense symmetric-matrix primitives shared by the samplers, and the
input checks every module shares.

Everything operates on plain float64 numpy arrays.  Matrices handled here
are symmetric by contract; every operation that returns a matrix builds it
exactly symmetric so asymmetry cannot accumulate over long Gibbs runs.

:func:`pd_check` is the one Cholesky helper: it factors a copy and tests
the factor's diagonal.

Each rule for a checked input is one helper, which raises ValueError
naming the input and its value: :func:`check_integer` for counts, sizes
and seeds, :func:`check_positive` for thresholds and hyperparameters, and
:func:`check_symmetric` for a matrix.

The package's BLAS and LAPACK routines come from scipy's two compiled f2py
modules, ``scipy.linalg._fblas`` and ``scipy.linalg._flapack``, which
:func:`scipy_extension` loads from scipy's install directory without
running the ``__init__`` of ``scipy`` or ``scipy.linalg``.  Those
``__init__``s were most of the cost of importing the package: in five runs
of ``python -X importtime -c 'import bayesglasso.cli'`` with numpy 2.4 and
scipy 1.17 on a 2-vCPU x86-64 guest, ``scipy.linalg`` read 207-289 of
333-433 ms, 154-205 ms of it ``scipy._lib._array_api``, whose
``array_api_compat.numpy`` runs ``from numpy import *`` and so loads
``numpy.f2py`` and ``numpy.testing``.  The two compiled modules take a few
ms each, and the whole import now reads 107-190 ms, 59-99 ms of it numpy.
Each compiled module is registered under its real name, so
``scipy.linalg.blas`` and ``scipy.linalg.lapack`` export the very routines
bound here, whichever of scipy and this package is imported first.

Every routine the package calls is bound here, once: ``dsyr``, ``dsymv``,
``ddot``, ``dscal``, ``daxpy`` and ``dtrtrs`` of the column update,
``dpotrf`` of :func:`pd_check` and of the column update's factor, and
``dpotri`` of :func:`invert_from_factor`.  :mod:`bayesglasso.sampler`
imports the seven it calls as globals of its own.
"""

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys

import numpy as np

# Cholesky factor diagonal entries must exceed this for a matrix to count
# as positive definite.
PD_TOL = 1e-12


def scipy_extension(package, name):
    """The compiled module ``scipy.<package>.<name>``, loaded without
    running any scipy package ``__init__``.

    A module already in ``sys.modules`` is returned as it is.  Otherwise
    the extension file is found in scipy's install directory, loaded,
    and registered under its real name, so that a later ``import
    scipy.<package>`` binds the same module object and every routine of
    it is the one this package calls.
    """
    fullname = f"scipy.{package}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        finder = importlib.machinery.FileFinder(
            os.path.join(root, package),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(fullname)
        if spec is None:
            raise ImportError(f"no compiled module {fullname} in {root}", name=fullname)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            # A module whose init failed must not stay registered: a later
            # import would find it and fail the same way.
            sys.modules.pop(fullname, None)
            raise
    return module


# The BLAS and LAPACK routines of the package, bound once and called
# positionally (see the sampler module docstring): f2py parses keyword
# arguments much more slowly.  Above each, the f2py signature its calls
# follow; tests/test_sampler.py pins these lines.
blas = scipy_extension("linalg", "_fblas")
lapack = scipy_extension("linalg", "_flapack")
# a = dsyr(alpha,x,[lower,incx,offx,n,a,overwrite_a])
_dsyr = blas.dsyr
# y = dsymv(alpha,a,x,[beta,y,offx,incx,offy,incy,lower,overwrite_y])
_dsymv = blas.dsymv
# xy = ddot(x,y,[n,offx,incx,offy,incy])
_ddot = blas.ddot
# x = dscal(a,x,[n,offx,incx])
_dscal = blas.dscal
# z = daxpy(x,y,[n,a,offx,incx,offy,incy])
_daxpy = blas.daxpy
# x,info = dtrtrs(a,b,[lower,trans,unitdiag,lda,overwrite_b])
_dtrtrs = lapack.dtrtrs
# c,info = dpotrf(a,[lower,clean,overwrite_a])
_dpotrf = lapack.dpotrf
# inv_a,info = dpotri(c,[lower,overwrite_c])
_dpotri = lapack.dpotri


def check_integer(name, value, least):
    """Raise ValueError unless value is a Python or numpy integer >= least."""
    # bool subclasses int, but True is no count.
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_positive(name, value):
    """Raise ValueError unless value is a finite real number > 0, not a bool."""
    # Written so that NaN, which fails every comparison, is rejected.
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be a finite and positive number, got {value!r}")


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


@functools.lru_cache
def upper_index(p):
    """Read-only flat indices of the upper triangle, diagonal included, of
    a C-ordered p x p matrix, built once per p and shared by every
    caller."""
    index = np.flatnonzero(~strict_lower(p))
    index.flags.writeable = False
    return index


@functools.lru_cache
def pair_index(p):
    """Read-only p x p array whose entries (j, k) and (k, j) both hold the
    position of the pair {j, k} in :func:`upper_index` order, built once
    per p and shared by every caller.  Taking it from a vector of one value
    per pair expands the vector to a symmetric p x p matrix."""
    rows, cols = np.triu_indices(p)
    index = np.empty((p, p), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    index.flags.writeable = False
    return index


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
    L, info = _dpotrf(np.array(M, order="F"), 1, 1, 1)
    # The NaN guard: OpenBLAS dpotrf returns info = 0 on input holding a
    # NaN, on or off the diagonal, and a NaN reaches the factor's diagonal,
    # whose NaN minimum fails the comparison.  The sampler's per-column
    # factor of C^{-1} has no such scan; a finiteness test on the column's
    # result guards it instead (see the sampler module docstring).
    if info != 0 or not L.diagonal().min() > PD_TOL:
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
