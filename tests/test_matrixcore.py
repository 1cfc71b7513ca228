import sys

import numpy as np
import pytest
from scipy.linalg import lapack

from bayesglasso.matrixcore import (
    check_symmetric,
    invert_from_factor,
    pair_index,
    pd_check,
    save_matrix_csv,
    scipy_extension,
    spd_inverse,
    strict_lower,
    upper_index,
)


def symmetrize(M):
    return (M + M.T) / 2.0


def random_spd(p, rng, jitter=1.0):
    """A A' + jitter p I for one standard normal p x p draw A, made exactly
    symmetric."""
    A = rng.standard_normal((p, p))
    return symmetrize(A @ A.T + jitter * p * np.eye(p))


def is_pd(M):
    """pd_check's verdict as a bool, for tests that compare verdicts."""
    try:
        pd_check(M)
    except ValueError:
        return False
    return True


def test_pd_check_identity():
    assert np.array_equal(pd_check(np.eye(2)), np.eye(2))


def test_pd_check_indefinite():
    # eigenvalues 3 and -1
    with pytest.raises(ValueError, match="^omega not positive definite$"):
        pd_check(np.array([[1.0, 2.0], [2.0, 1.0]]), "omega")


def test_pd_check_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="matrix must be square"):
        pd_check(np.ones((2, 3)))


def test_pd_check_circle_design_p3():
    # Characteristic-polynomial oracle for [[2,1,.9],[1,2,1],[.9,1,2]]:
    # lambda^3 - 6 lambda^2 + 9.19 lambda - 4.18, roots computed up front:
    # 0.9659177920344189, 1.1, 3.934082207965584 -- all positive.
    M = np.array([[2.0, 1.0, 0.9], [1.0, 2.0, 1.0], [0.9, 1.0, 2.0]])
    roots = sorted(np.roots([1.0, -6.0, 9.19, -4.18]).real)
    assert roots[0] > 0
    assert np.allclose(roots, [0.9659177920344189, 1.1, 3.934082207965584], atol=1e-9)
    pd_check(M)


def test_pd_check_does_not_mutate():
    M = np.array([[4.0, 1.0], [1.0, 3.0]])
    before = M.copy()
    pd_check(M)
    assert np.array_equal(M, before)


def test_pd_check_nan_rejected():
    M = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="not positive definite"):
        pd_check(M)
    # OpenBLAS dpotrf returns info = 0 on these, so pd_check's diagonal scan
    # is what rejects them.  One NaN on the diagonal, one off it.
    # The sampler's per-column dpotrf of C^{-1}, called as below, does not
    # scan: its factor carries the NaN to the pivot of the NaN's row, and
    # the sweep's finiteness test on the column's result rejects it there
    # (tests/test_sampler.py).  A LAPACK that reports failure on NaN
    # instead returns a nonzero info.
    rng = np.random.default_rng(12)
    for i, j in ((13, 13), (29, 4)):
        M = random_spd(30, rng, jitter=0.5)
        M[i, j] = M[j, i] = np.nan
        with pytest.raises(ValueError, match="not positive definite"):
            pd_check(M)
        L, info = lapack.dpotrf(M.T, 1, 0, 1)
        assert info != 0 or np.isnan(L[i, i]), (i, j)


def test_pd_check_factor_roundtrip():
    # pd_check(L L') succeeds for any lower-triangular L with positive diagonal.
    rng = np.random.default_rng(42)
    for _ in range(100):
        L = np.tril(rng.standard_normal((5, 5)))
        np.fill_diagonal(L, np.abs(rng.standard_normal(5)) + 0.1)
        M = L @ L.T
        got = pd_check(symmetrize(M))
        assert np.max(np.abs(got @ got.T - M)) < 1e-10 * 5 * np.max(np.abs(M))


@pytest.mark.parametrize("k", [-300, 300])
def test_pd_check_is_scale_free(k):
    # Scaling by a power of four scales every pivot by the power of two
    # exactly, so the verdict and the factor do not depend on the units:
    # at k = -300 the pivots are near 1e-90.
    M = random_spd(6, np.random.default_rng(14), jitter=0.5)
    assert np.array_equal(pd_check(4.0**k * M), 2.0**k * pd_check(M))


def test_strict_lower_is_built_once_per_p_and_read_only():
    for p in (1, 2, 7):
        mask = strict_lower(p)
        assert mask is strict_lower(p)
        assert np.array_equal(mask, np.tri(p, k=-1, dtype=bool))
        assert not mask.flags.writeable


def test_upper_index_is_built_once_per_p_and_read_only():
    for p in (1, 2, 7):
        index = upper_index(p)
        assert index is upper_index(p)
        M = np.arange(p * p, dtype=float).reshape(p, p)
        assert np.array_equal(M.take(index), M[np.triu_indices(p)])
        assert not index.flags.writeable


def test_pair_index_is_built_once_per_p_and_read_only():
    for p in (1, 2, 7):
        index = pair_index(p)
        assert index is pair_index(p)
        # Taken from the upper triangle in upper_index order, it gives back
        # the symmetric matrix the triangle came from.
        M = symmetrize(np.arange(p * p, dtype=float).reshape(p, p))
        assert np.array_equal(M.take(upper_index(p)).take(index), M)
        assert not index.flags.writeable


def test_invert_from_factor_reads_only_the_lower_triangle():
    # A factor computed in place keeps stale entries above its diagonal;
    # the inverse must not see them.
    rng = np.random.default_rng(6)
    for p in (1, 2, 7, 30):
        L = pd_check(random_spd(p, rng, jitter=0.5))
        dirty = L + np.triu(rng.standard_normal((p, p)), 1)
        assert np.array_equal(invert_from_factor(dirty), invert_from_factor(L))


def test_invert_from_factor_rejects_a_singular_factor():
    with pytest.raises(np.linalg.LinAlgError, match="dpotri failed with info=2"):
        invert_from_factor(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("M,expect", [
    pytest.param(np.eye(3), np.eye(3), id="identity"),
    pytest.param(np.diag([2.0, 4.0]), np.diag([0.5, 0.25]), id="diagonal"),
    # inverse of [[2,1],[1,2]] is adj/det = [[2,-1],[-1,2]]/3
    pytest.param(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0,
                 id="2x2-adjugate"),
])
def test_spd_inverse_hand_oracle(M, expect):
    assert np.allclose(spd_inverse(M), expect, atol=1e-14)


def test_spd_inverse_rejects_non_pd():
    with pytest.raises(ValueError, match="not positive definite"):
        spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_spd_inverse_product_is_identity():
    rng = np.random.default_rng(3)
    for p in (2, 5, 12):
        M = random_spd(p, rng, jitter=0.5)
        err = np.max(np.abs(M @ spd_inverse(M) - np.eye(p)))
        assert err < 1e-8 * p


def test_spd_inverse_involution():
    rng = np.random.default_rng(4)
    M = random_spd(6, rng, jitter=0.5)
    back = spd_inverse(spd_inverse(M))
    assert np.max(np.abs(back - M)) < 1e-6


def test_spd_inverse_output_exactly_symmetric():
    rng = np.random.default_rng(5)
    inv = spd_inverse(random_spd(7, rng, jitter=0.5))
    assert np.max(np.abs(inv - inv.T)) == 0.0


def test_permute_preserves_pd_verdict():
    # symmetric permutation is a congruence, so the PD verdict is invariant
    rng = np.random.default_rng(8)
    for k in range(100):
        M = symmetrize(rng.standard_normal((5, 5)))
        if k % 2 == 0:
            M = M + 5 * np.eye(5)  # mix in PD cases
        i = int(rng.integers(5))
        order = np.arange(5)
        order[i], order[-1] = 4, i
        assert is_pd(M) == is_pd(M[np.ix_(order, order)])


def test_check_symmetric_rejects():
    with pytest.raises(ValueError, match="not symmetric"):
        check_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        check_symmetric(np.ones((2, 3)))


def test_matrix_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(10)
    M = random_spd(6, rng, jitter=0.5)
    path = tmp_path / "m.csv"
    save_matrix_csv(M, path)
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    # 17 significant digits round-trips float64 exactly
    assert np.array_equal(back, M)
    assert back.shape == (6, 6)


def test_scipy_extension_raises_on_a_missing_module_and_registers_nothing():
    with pytest.raises(ImportError) as excinfo:
        scipy_extension("linalg", "_no_such_module")
    assert excinfo.value.name == "scipy.linalg._no_such_module"
    assert "scipy.linalg._no_such_module" not in sys.modules
