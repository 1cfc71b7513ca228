import math
import random
from dataclasses import FrozenInstanceError, replace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import blas, lapack

from bayesglasso import matrixcore, sampler
from bayesglasso.designs import scatter_matrix, simulate_data, true_model
from bayesglasso.distributions import RngStream, sample_truncated_normal
from bayesglasso.matrixcore import invert_from_factor, pair_index, pd_check, spd_inverse
from bayesglasso.sampler import (
    OVERRELAX,
    S_FLOOR,
    SAMPLER_KINDS,
    ChainConfig,
    ViolationAudit,
    _factor_c_inverse,
    bgs_update_beta,
    hit_and_run_interval,
    hrs_update_beta,
    initial_state,
    make_partition,
    run_chain,
    scale_move,
    sweep,
    update_gamma,
    update_lambda_column,
    update_tau_column,
)

from test_matrixcore import is_pd, random_spd, symmetrize


def represented(M):
    """The full symmetric matrix that M's upper triangle (numpy indexing)
    stands for: the one current triangle of the carried sigma and of a
    partition's omega11_inv."""
    return np.triu(M) + np.triu(M, 1).T


def state_with_omega(omega, scatter=None, n=10):
    p = omega.shape[0]
    st = initial_state(scatter if scatter is not None else np.eye(p), n)
    st.omega = np.array(omega, dtype=float)
    return st


def off_diagonal(M):
    """M with a zero diagonal, as the sweep hands the scatter matrix's rows
    to the column steps."""
    M = M.copy()
    np.fill_diagonal(M, 0.0)
    return M


def column(st, i, tau=None, lam=None):
    """What sweep hands column i's steps, from make_partition on a fresh
    inverse, with row i of tau and entry i of lam as the column's shrinkage
    draws, tau as its reciprocal inv_tau12; unit ones, as in a chain's first
    column, when they are not given.  Slot i of inv_tau12 is 1 and beta is
    row i of omega with slot i zeroed, as the compressed blocks hold them;
    sweep leaves a drawn 1/tau_ii and, for hrs, omega_ii there, which move
    no bit (see the slot-i and bitwise sweep tests).
    Returns (omega11_inv, s12, c, inv_tau12, beta, omega22)."""
    p = st.omega.shape[0]
    inv_tau12 = np.ones(p) if tau is None else 1.0 / tau[i]
    inv_tau12[i] = 1.0
    lambda22 = 1.0 if lam is None else float(lam[i])
    omega22 = st.omega.item(i, i)
    omega11_inv = spd_inverse(st.omega)
    make_partition(omega11_inv, i)
    beta = st.omega[i].copy()
    beta[i] = 0.0
    c = st.scatter.item(i, i) + 2.0 * lambda22
    return omega11_inv, off_diagonal(st.scatter)[i], c, inv_tau12, beta, omega22


def c_factor(omega11_inv, c, inv_tau12):
    """_factor_c_inverse in a fresh workspace, with its diagonal view made
    as sweep makes it."""
    p = len(inv_tau12)
    work = np.empty((p, p))
    return _factor_c_inverse(np.asarray(omega11_inv, dtype=float), c,
                             np.asarray(inv_tau12, dtype=float), work, work.reshape(-1)[:: p + 1])


def schur_gamma(omega11_inv, beta, omega22):
    return float(omega22 - beta @ (represented(omega11_inv) @ beta))


def compute_c_matrix(omega11_inv, c, inv_tau12):
    """C = (c Omega11^{-1} + diag(inv_tau12))^{-1}, formed explicitly and
    inverted from a clean Cholesky factor; the samplers only ever factor
    C^{-1} in place."""
    cinv = c * represented(np.asarray(omega11_inv, dtype=float)) + np.diag(inv_tau12)
    return invert_from_factor(pd_check(cinv))


# ---------------------------------------------------------------- partition

@pytest.mark.parametrize("omega,i,beta,omega22,gamma,omega11_inv", [
    # slot 0 is decoupled: zero in beta and omega11_inv, one in inv_tau12
    pytest.param(np.eye(2), 0, [0.0, 0.0], 1.0, 1.0, [[0.0, 0.0], [0.0, 1.0]], id="identity"),
    # omega = [[2,1],[1,2]], last column: beta = 1, gamma = 2 - 1*(1/2)*1
    pytest.param(np.array([[2.0, 1.0], [1.0, 2.0]]), 1, [1.0, 0.0], 2.0, 1.5,
                 [[0.5, 0.0], [0.0, 0.0]], id="schur"),
])
def test_partition_hand_oracle_p2(omega, i, beta, omega22, gamma, omega11_inv):
    got_inv, _, _, inv_tau12, got_beta, got_omega22 = column(state_with_omega(omega), i)
    assert np.array_equal(got_beta, beta)
    assert np.array_equal(inv_tau12, [1.0, 1.0])
    assert got_omega22 == omega22
    assert schur_gamma(got_inv, got_beta, got_omega22) == pytest.approx(gamma)
    assert np.allclose(represented(got_inv), omega11_inv)


def test_partition_blocks_follow_permutation():
    # make_partition reads and writes sigma alone: it downdates it in place
    # to Omega11^{-1} in natural order, with slot i decoupled, zero in row
    # and column i, and every other entry in place.  What a sweep hands its
    # column steps besides is stated by the bitwise and slot-i sweep tests.
    rng = np.random.default_rng(0)
    p = 5
    S = scatter_matrix(rng.standard_normal((20, p)))
    st = initial_state(S, 20)
    st.omega = random_spd(p, rng)
    omega_before = st.omega.copy()
    for i in range(p):
        sigma = spd_inverse(st.omega)
        assert make_partition(sigma, i) is None
        assert np.array_equal(st.omega, omega_before) and np.array_equal(st.scatter, S)
        omega11_inv = represented(sigma)
        assert np.all(omega11_inv[i] == 0.0) and np.all(omega11_inv[:, i] == 0.0)
        rest = np.arange(p) != i
        expect = np.linalg.inv(st.omega[np.ix_(rest, rest)])
        assert np.allclose(omega11_inv[np.ix_(rest, rest)], expect, rtol=1e-12, atol=1e-14)


def test_partition_gamma_roundtrip():
    # rebuilding omega_ii from (gamma, beta) recovers it to 1e-10 relative
    rng = np.random.default_rng(1)
    p = 6
    omega = random_spd(p, rng)
    st = state_with_omega(omega)
    for i in range(p):
        omega11_inv, _, _, _, beta, omega22 = column(st, i)
        gamma = schur_gamma(omega11_inv, beta, omega22)
        rest = np.arange(p) != i
        assert beta[i] == 0.0
        beta = beta[rest]
        rebuilt = gamma + beta @ np.linalg.solve(omega[np.ix_(rest, rest)], beta)
        assert abs(rebuilt - omega[i, i]) < 1e-10 * abs(omega[i, i])
        assert gamma > 0


def test_partition_index_out_of_range():
    with pytest.raises(IndexError):
        make_partition(np.eye(3), 3)


def random_state(gen, p=7):
    """A state with random S and omega, and random tau and lam to partition
    it with, for column-level checks."""
    S = scatter_matrix(gen.standard_normal((12, p)))
    st = initial_state(S, 12)
    st.omega = random_spd(p, gen)
    tau = symmetrize(np.abs(gen.standard_normal((p, p))) + 0.1)
    lam = np.abs(gen.standard_normal(p)) + 0.1
    return st, tau, lam


def test_partition_needs_a_c_ordered_sigma():
    # The downdate updates sigma.T in place, which BLAS can do only when
    # sigma is C-ordered; on an F-ordered one f2py would update a copy and
    # leave a wrong Omega11^{-1} behind.  The sweep's sigma comes from
    # invert_from_factor, C-ordered whatever the factor's order.
    st, _, _ = random_state(np.random.default_rng(13), p=5)
    L = pd_check(st.omega)
    for factor in (np.asfortranarray(L), np.ascontiguousarray(L)):
        assert invert_from_factor(factor).flags.c_contiguous
    sigma = np.asfortranarray(spd_inverse(st.omega))
    with pytest.raises(ValueError, match="C-ordered"):
        make_partition(sigma, 2)


def test_masked_partition_draws_match_the_compressed_blocks():
    # Slot i of the masked partition is decoupled: C has a unit (i, i)
    # entry and a zero row and column i, bgs's draw from omega's row holds
    # alpha omega_ii there, hrs leaves the omega_ii of the row it updates in
    # place there and returns a v that is exactly 0 there, and the other
    # entries are the draw from the (p-1)-dimensional blocks that leave
    # slot i out.
    gen = np.random.default_rng(9)
    p = 7
    st, tau, lam = random_state(gen, p)
    for i in range(p):
        omega11_inv, s12, c, inv_tau12, beta, omega22 = column(st, i, tau, lam)
        rest = np.arange(p) != i
        small_inv = represented(omega11_inv)[np.ix_(rest, rest)]
        C = compute_c_matrix(omega11_inv, c, inv_tau12)
        assert C[i, i] == 1.0
        assert np.all(C[i, rest] == 0.0) and np.all(C[rest, i] == 0.0)
        np.testing.assert_allclose(C[np.ix_(rest, rest)],
                                   compute_c_matrix(small_inv, c, inv_tau12[rest]),
                                   rtol=1e-12, atol=1e-15)
        z = gen.standard_normal(p)
        z[i] = 0.0
        u = float(gen.random())
        L, small_L = c_factor(omega11_inv, c, inv_tau12), c_factor(small_inv, c, inv_tau12[rest])
        row = st.omega[i].copy()
        got = bgs_update_beta(L, s12, z, row, OVERRELAX)
        assert got[i] == OVERRELAX * omega22
        np.testing.assert_allclose(got[rest],
                                   bgs_update_beta(small_L, s12[rest], z[rest], beta[rest],
                                                   OVERRELAX),
                                   rtol=1e-10, atol=1e-13)
        got, got_v = hrs_update_beta(L, omega11_inv, s12, c, inv_tau12, row, omega22, z, u)
        small, small_v = hrs_update_beta(small_L, small_inv, s12[rest], c, inv_tau12[rest],
                                         beta[rest], omega22, z[rest], u)
        assert got is row and got[i] == omega22 and got_v[i] == 0.0
        np.testing.assert_allclose(got[rest], small, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(got_v[rest], small_v, rtol=1e-10, atol=1e-13)


# ---------------------------------------------------------------- C matrix

def test_c_matrix_oracle():
    # Omega11 = I2, s22 = 1, lam22 = 0.5, inv_tau12 = (1,1):
    # C = inv(2 I + I) = I/3
    C = compute_c_matrix(np.eye(2), 1.0 + 2.0 * 0.5, [1.0, 1.0])
    assert np.allclose(C, np.eye(2) / 3.0, atol=1e-14)


def test_c_matrix_large_tau_limit():
    # tau -> inf, 1/tau -> 0: C -> Omega11 / (s22 + 2 lam22)
    omega11 = random_spd(3, np.random.default_rng(2))
    C = compute_c_matrix(spd_inverse(omega11), 1.0 + 2.0 * 0.5, np.full(3, 1e-12))
    expect = omega11 / 2.0
    assert np.max(np.abs(C - expect)) < 1e-6 * np.max(np.abs(expect))


def test_c_matrix_always_pd():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p1 = int(rng.integers(1, 6))
        inv = spd_inverse(random_spd(p1, rng))
        s22 = float(np.abs(rng.standard_normal()) + 0.1)
        inv_tau12 = 1.0 / (np.abs(rng.standard_normal(p1)) + 0.05)
        lambda22 = float(np.abs(rng.standard_normal()) + 0.05)
        pd_check(compute_c_matrix(inv, s22 + 2.0 * lambda22, inv_tau12))


def test_c_matrix_rejects_bad_tau():
    # A negative tau entry can make C^{-1} indefinite: diag(2 + inv_tau12)
    # has -8 in slot 1.  The one factor both beta draws use must refuse it.
    with pytest.raises(ValueError, match="conditional covariance not positive definite"):
        c_factor(np.eye(2), 1.0 + 2.0 * 0.5, [1.0, -10.0])


# ---------------------------------------------------------------- beta draws

def overrelaxed_draw(L, s12, z, beta):
    """bgs_update_beta with the scalings that sweep folds into its normals
    and its copy of S applied here, to a fresh array."""
    return bgs_update_beta(L, (1.0 - OVERRELAX) * np.asarray(s12),
                           math.sqrt(1.0 - OVERRELAX * OVERRELAX) * np.asarray(z),
                           np.array(beta, dtype=float), OVERRELAX)


@pytest.mark.parametrize("omega11_inv,s12,c,inv_tau12,seed,n", [
    # s12 = 0 makes the conditional mean zero
    pytest.param(np.eye(3), np.zeros(3), 1.0 + 2.0 * 0.5, np.ones(3), 1, 10_000, id="centered"),
    pytest.param(np.eye(2), np.array([0.7, -0.3]), 2.0 + 2.0 * 0.25, [2.0, 0.5], 2, 100_000,
                 id="diagonal"),
    pytest.param(spd_inverse(random_spd(3, np.random.default_rng(40))),
                 np.array([0.9, -0.4, 0.2]), 2.5 + 2.0 * 0.6, [1 / 0.3, 1 / 1.5, 1 / 0.8], 41,
                 40_000, id="random"),
])
def test_bgs_beta_draw_moments(omega11_inv, s12, c, inv_tau12, seed, n):
    # The overrelaxed draw from a fixed old column beta comes from one
    # Cholesky factor of C^{-1}; its first two moments must still be
    # mu + alpha (beta - mu) and (1 - alpha**2) C, with mu = -C s12 and C
    # formed independently.
    C = compute_c_matrix(omega11_inv, c, inv_tau12)
    L = c_factor(omega11_inv, c, inv_tau12)
    gen = RngStream(seed)
    mu, beta = -C @ s12, np.linspace(-1.0, 2.0, len(s12))
    draws = np.array([overrelaxed_draw(L, s12, gen.standard_normal(len(s12)), beta)
                      for _ in range(n)])
    cov = (1.0 - OVERRELAX**2) * C
    se_mean = np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(draws.mean(axis=0) - (mu + OVERRELAX * (beta - mu))) < 4 * se_mean)
    # Var of a sample covariance entry: (C_ii C_jj + C_ij^2) / n.
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov * cov) / n)
    assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) < 4 * se_cov)


# a = gamma = 1 gives roots -b +- sqrt(b^2 + 1).
@pytest.mark.parametrize("b,roots", [(0.0, (-1.0, 1.0)),
                                     (0.5, (-0.5 - math.sqrt(1.25), -0.5 + math.sqrt(1.25)))],
                         ids=["unit", "quadratic"])
def test_hit_and_run_interval_hand_oracle(b, roots):
    assert hit_and_run_interval(1.0, b, 1.0) == pytest.approx(roots)


def test_hit_and_run_interval_brackets_zero():
    rng = np.random.default_rng(4)
    stream = RngStream(5)
    for _ in range(1000):
        p1 = int(rng.integers(1, 5))
        inv = spd_inverse(random_spd(p1, rng))
        beta = rng.standard_normal(p1)
        gamma = float(np.abs(rng.standard_normal()) + 1e-6)
        alpha = stream.standard_normal(p1)
        alpha /= math.sqrt(float(alpha @ alpha))
        v = inv @ alpha
        lo, hi = hit_and_run_interval(float(alpha @ v), float(beta @ v), gamma)
        assert lo < 0.0 < hi


@pytest.mark.parametrize("b", [1e8, -1e8, 1e6, -1e6])
def test_hit_and_run_interval_roots_do_not_cancel(b):
    # (-b + disc)/a cancels when |b| dwarfs a*gamma: at b = 1e8 it gives an
    # exact 0, which no longer brackets 0.  The near root, from the product
    # of the roots, is gamma / (|b| + disc) to 1e-15 relative.
    a = gamma = 1.0
    lo, hi = hit_and_run_interval(a, b, gamma)
    assert lo < 0.0 < hi
    disc = math.sqrt(b * b + a * gamma)
    near, far = (hi, lo) if b > 0 else (-lo, -hi)
    np.testing.assert_allclose(near, gamma / (abs(b) + disc), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(far, -(abs(b) + disc) / a, rtol=1e-15, atol=0.0)


def test_hit_and_run_interval_rejects_non_pd_state():
    with pytest.raises(ValueError, match="state not positive definite"):
        hit_and_run_interval(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"a = 2\.5e-07, gamma = -8\.5e-08$"):
        hit_and_run_interval(2.5e-7, 0.0, -8.5e-8)
    # a = 0 must not divide by zero, nor a < 0 reach a negative square root.
    for a, gamma in ((0.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="state not positive definite"):
            hit_and_run_interval(a, 0.5, gamma)


@pytest.mark.parametrize("a,b,gamma", [(1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
                                         (1.0, -math.inf, 1.0), (math.inf, 0.5, 1.0),
                                         (1.0, 0.5, math.inf), (1.0, 0.5, math.nan),
                                         (math.nan, 0.5, 1.0)])
def test_hit_and_run_interval_rejects_non_finite_input(a, b, gamma):
    # NaN fails every comparison, so a NaN must not slip through as
    # (nan, nan), and it is named as a NaN, not as a state that is not
    # positive definite.  An infinite b would give an interval such as
    # (-inf, 0.0) that no longer brackets 0 strictly; an infinite a or gamma
    # a NaN root.
    with pytest.raises(ValueError, match="needs finite a, b and gamma"):
        hit_and_run_interval(a, b, gamma)


def test_hrs_beta_always_feasible():
    # The step updates the column it is given in place and returns it with
    # v = Omega11^{-1} times it, which it forms from the products of the old
    # column and the direction, not afresh.
    rng = np.random.default_rng(6)
    stream = RngStream(7)
    for _ in range(300):
        p1 = int(rng.integers(1, 6))
        inv = spd_inverse(random_spd(p1, rng))
        beta = rng.standard_normal(p1) * 0.3
        gamma = float(np.abs(rng.standard_normal()) + 0.01)
        omega22 = gamma + beta @ inv @ beta
        s12 = rng.standard_normal(p1)
        s22 = float(np.abs(rng.standard_normal()) + 0.1)
        inv_tau12 = 1.0 / (np.abs(rng.standard_normal(p1)) + 0.05)
        c = s22 + 2.0 * float(np.abs(rng.standard_normal()) + 0.05)
        new_beta, v = hrs_update_beta(c_factor(inv, c, inv_tau12), inv, s12, c, inv_tau12,
                                      beta, omega22, stream.standard_normal(p1), stream.random())
        assert new_beta is beta
        assert new_beta @ inv @ new_beta < omega22
        np.testing.assert_allclose(v, inv @ new_beta, rtol=1e-10, atol=1e-13)


def beta_coordinates_hrs_step(omega11_inv, s12, c, inv_tau12, beta, omega22, z, u):
    """The hrs step taken in beta coordinates: d = L^{-T} z scaled to unit
    Euclidean length, C^{-1} formed explicitly, a step of mean -(s12'd +
    beta' C^{-1} d) / (d' C^{-1} d) and variance 1 / (d' C^{-1} d), and the
    interval's roots (-b -+ disc) / a taken directly."""
    omega11_inv = represented(omega11_inv)
    cinv = c * omega11_inv + np.diag(inv_tau12)
    L = np.linalg.cholesky(cinv)
    d = lapack.dtrtrs(L, z, lower=1, trans=1)[0]
    d /= np.linalg.norm(d)
    w = cinv @ d
    denom = float(d @ w)
    mu = -(float(s12 @ d) + float(beta @ w)) / denom
    sigma = math.sqrt(1.0 / denom)
    v = omega11_inv @ d
    a, b = float(d @ v), float(beta @ v)
    gamma = omega22 - float(beta @ omega11_inv @ beta)
    disc = math.sqrt(b * b + a * gamma)
    lo, hi = (-b - disc) / a, (-b + disc) / a
    # N(mu, sigma**2) on (lo, hi) is mu + sigma * N(0, 1) on the
    # standardized interval.
    z_step = sample_truncated_normal(0.0, (lo - mu) / sigma, (hi - mu) / sigma, u)
    return beta + (mu + sigma * z_step) * d


def test_whitened_hrs_step_matches_the_beta_coordinates_step():
    # Moving x = L' beta along e = z/|z| with a unit-variance step is the
    # same move as the beta-coordinates step along L^{-T} z: same line, same
    # truncated normal, so the same column for the same (z, u).  The step
    # reads row i of omega as the sweep hands it, omega_ii in slot i, which
    # it leaves there.
    gen = np.random.default_rng(9)
    p = 7
    st, tau, lam = random_state(gen, p)
    for i in range(p):
        blocks = column(st, i, tau, lam)
        omega11_inv, s12, c, inv_tau12, _, omega22 = blocks
        L = c_factor(omega11_inv, c, inv_tau12)
        for _ in range(6):
            z = gen.standard_normal(p)
            z[i] = 0.0
            u = float(gen.random())
            got, _ = hrs_update_beta(L, omega11_inv, s12, c, inv_tau12, st.omega[i].copy(),
                                     omega22, z, u)
            expect = beta_coordinates_hrs_step(*blocks, z, u)
            assert got[i] == omega22 and expect[i] == 0.0
            expect[i] = omega22
            np.testing.assert_allclose(got, expect, rtol=1e-10, atol=0.0)


def test_hrs_zero_direction_raises():
    st, tau, lam = random_state(np.random.default_rng(10))
    blocks = column(st, 3, tau, lam)
    omega11_inv, _, c, inv_tau12 = blocks[:4]
    with pytest.raises(ZeroDivisionError):
        hrs_update_beta(c_factor(omega11_inv, c, inv_tau12), *blocks, np.zeros(7), 0.5)


def test_hrs_step_needs_a_contiguous_row():
    # The step writes the new column into omega's row with daxpy, which
    # updates only a contiguous float64 array in place; on a row of an
    # F-ordered omega f2py would update a copy and leave omega's row as it
    # was.  The sweep's omega starts as np.eye, C-ordered, and stays so.
    st, tau, lam = random_state(np.random.default_rng(14), p=5)
    omega11_inv, s12, c, inv_tau12, _, omega22 = column(st, 2, tau, lam)
    z = np.random.default_rng(15).standard_normal(5)
    z[2] = 0.0
    row = np.asfortranarray(st.omega)[2]
    with pytest.raises(ValueError, match="C-ordered float64 row"):
        hrs_update_beta(c_factor(omega11_inv, c, inv_tau12), omega11_inv, s12, c, inv_tau12,
                        row, omega22, z, 0.5)


def test_hrs_unbounded_matches_bgs_distribution():
    # With omega22 huge the truncation interval is effectively the whole
    # line and, in one dimension, a hit-and-run update is an exact draw
    # from the unconstrained conditional, so HRS and BGS must agree.
    inv = np.array([[0.5]])  # Omega11 = [[2]]
    s12, c, inv_tau12 = np.array([0.8]), 1.5 + 2.0 * 0.4, np.array([1 / 0.7])
    beta0 = np.array([0.3])
    omega22 = 1e12
    L = c_factor(inv, c, inv_tau12)
    n = 40_000
    h = RngStream(8)
    b = RngStream(9)

    def hrs_draw():
        # The step updates its column in place, so each draw gets a copy.
        beta, _ = hrs_update_beta(L, inv, s12, c, inv_tau12, beta0.copy(), omega22,
                                  h.standard_normal(1), h.random())
        return beta.item()

    C = compute_c_matrix(inv, c, inv_tau12)[0, 0]

    def bgs_draw():
        # An overrelaxed step from an exact draw of N(-C s12, C) is another
        # one, independent of the last.
        beta = -C * s12 + math.sqrt(C) * b.standard_normal(1)
        return overrelaxed_draw(L, s12, b.standard_normal(1), beta).item()

    hrs_draws = np.array([hrs_draw() for _ in range(n)])
    bgs_draws = np.array([bgs_draw() for _ in range(n)])
    se_mean = math.sqrt(C / n)
    assert abs(hrs_draws.mean() - bgs_draws.mean()) < 4 * math.sqrt(2) * se_mean
    assert abs(hrs_draws.var(ddof=1) - bgs_draws.var(ddof=1)) < 4 * C * math.sqrt(2.0 / n) * math.sqrt(2)


# ---------------------------------------------------------------- scalars

def test_update_gamma_moments_and_support():
    # s22 = 1, lambda22 = 0.5: the rate c/2 is 1
    g = RngStream(10).standard_gamma(50 / 2 + 1, 100_000)
    draws = update_gamma(1.0 + 2.0 * 0.5, g)
    assert np.all(draws > 0)
    # Ga(26, 1): mean 26
    assert abs(draws.mean() - 26.0) < 0.2


def test_update_lambda_moments():
    # r=1, s=1, |omega|=1: Ga(2, 2) has mean 1
    g = RngStream(11).standard_gamma(1.0 + 1.0, 100_001)
    rates = update_lambda_column(np.ones(100_001), 1.0, g)
    assert abs(rates.mean() - 1.0) < 0.02
    assert np.all(rates > 0)


def test_update_lambda_is_not_clamped():
    # r=0.01, s=1e-6, omega=0: the rates are Ga(1.01, 1e-6), mean 1.01e6
    g = RngStream(12).standard_gamma(0.01 + 1.0, 10_001)
    rates = update_lambda_column(np.append(np.zeros(10_000), 1.0), 1e-6, g)
    lam12 = rates[:-1]
    assert rates[-1] > 0
    assert np.array_equal(lam12, g[:-1] / 1e-6)
    assert np.any(lam12 > 1e6)  # no upper bound cuts the draws
    assert abs(lam12.mean() - 1.01e6) < 4.0 * math.sqrt(1.01e12 / lam12.size)
    assert lam12.min() > 0


def tau_draws(lam, abs_omega, gen):
    """update_tau_column fed one standard normal and then one uniform per
    entry, transformed the way the sweep transforms its bank."""
    nu, u = gen.standard_normal(np.shape(lam)), gen.random(np.shape(lam))
    return update_tau_column(lam, abs_omega, nu * nu * 0.5, u / (1.0 - u))


def test_update_tau_ig_mean_oracle():
    # 1/tau ~ IG(mean lam/a, shape lam**2): variance mean**3/shape = lam/a**3,
    # excess kurtosis 15 mean/shape.
    n = 200_000
    gen = RngStream(13)
    for lam, a in ((1.0, 1.0), (3.0, 0.5), (1.0, 0.5)):
        x = 1.0 / tau_draws(np.full(n, lam), np.full(n, a), gen)
        mean, var = lam / a, lam / a ** 3
        kurt = 3.0 + 15.0 * mean / lam ** 2
        assert abs(x.mean() - mean) < 4.0 * math.sqrt(var / n)
        assert abs(x.var(ddof=1) - var) < 4.0 * var * math.sqrt((kurt - 1.0) / n)


@pytest.mark.parametrize("seed,points", [
    # IG(0.3, 0.2), lam = sqrt(0.2), then one IG(1, 1) draw
    pytest.param(6, [(math.sqrt(0.2), math.sqrt(0.2) / 0.3, 5000), (1.0, 1.0, 1)],
                 id="small-shape"),
    # Extreme rates a chain draws at the default r and s: a small rate with
    # a zero or a nearly zero |omega|, and a rate near the mean of
    # Ga(1.01, 1e-6), 1e6, with a large or a zero |omega|.
    pytest.param(7, [(1e-6, 0.0, 1000), (1e-6, 1e-300, 1000), (1e6, 1e3, 1000),
                     (1e6, 0.0, 1000)], id="extreme-rates"),
    pytest.param(14, [(1.0, 0.0, 1000)], id="zero-omega"),
])
def test_update_tau_draws_are_finite_and_positive(seed, points):
    # (lam, |omega|, draws) points, drawn in turn from one stream.
    gen = RngStream(seed)
    for lam, abs_omega, n in points:
        tau = tau_draws(np.full(n, lam), np.full(n, abs_omega), gen)
        assert np.all(np.isfinite(tau)), (lam, abs_omega)
        assert np.all(tau > 0), (lam, abs_omega)


def test_update_tau_at_the_edges_of_its_domain():
    # At |omega| = 0, 1/tau ~ IG(lam/|omega|, lam**2) is at its limit, the
    # Levy law of scale lam**2: the draw is tau = nu**2 / lam**2, to
    # rounding, with mean 1/lam**2 and variance 2/lam**4, however large lam.
    n = 200_000
    gen = RngStream(14)
    for lam in (1.0, 1e12):
        nu, u = gen.standard_normal(n), gen.random(n)
        tau = update_tau_column(np.full(n, lam), np.zeros(n), nu * nu * 0.5, u / (1.0 - u))
        np.testing.assert_allclose(tau, nu * nu / lam ** 2, rtol=1e-15, atol=0.0)
        assert abs(tau.mean() * lam ** 2 - 1.0) < 4.0 * math.sqrt(2.0 / n), lam
    # The transform checks nothing; nu = 0 and the smallest and largest
    # uniforms are still inside its domain and give positive draws.
    for u in (0.0, 1.0 - 2.0 ** -53):
        tau = update_tau_column(np.ones(1), np.ones(1), np.zeros(1), np.array([u / (1.0 - u)]))
        assert tau[0] > 0


def msh_tau(lam, a, nu, u):
    """tau = 1/IG(lam/a, lam**2) by the Michael-Schucany-Haas (1976)
    transform as published, evaluated in 60-digit decimal arithmetic so
    that its cancellation cannot blur the comparison.  Returns the draw
    and whether the smaller root was taken."""
    with localcontext() as ctx:
        ctx.prec = 60
        lam, a, nu, u = Decimal(lam), Decimal(a), Decimal(nu), Decimal(u)
        mean, shape = lam / a, lam * lam
        my = mean * nu * nu
        x = mean + mean * (my - (my * (4 * shape + my)).sqrt()) / (2 * shape)
        small = u * (mean + x) <= mean
        return float(1 / x if small else x / (mean * mean)), small


def test_update_tau_closed_form_matches_msh_oracle():
    gen = RngStream(25)
    grid = np.logspace(-3.0, 3.0, 13)
    lam, a = (v.ravel().repeat(8) for v in np.meshgrid(grid, grid))
    nu, u = gen.standard_normal(lam.shape), gen.random(lam.shape)
    k = nu * nu * 0.5 / (a * lam)
    keep = k <= 1e4
    lam, a, nu, u, k = lam[keep], a[keep], nu[keep], u[keep], k[keep]
    assert keep.sum() > 1000 and k.max() > 1e3
    got = update_tau_column(lam, a, nu * nu * 0.5, u / (1.0 - u))
    oracle = [msh_tau(*args) for args in zip(lam.tolist(), a.tolist(), nu.tolist(), u.tolist())]
    want = [t for t, _ in oracle]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # The same branch: with r = 1 + k + sqrt(k (k + 2)) the smaller root
    # gives tau = (a/lam) r >= a/lam, the other tau = (a/lam)/r <= a/lam.
    small = np.array([b for _, b in oracle])
    assert 0 < small.sum() < small.size
    assert np.array_equal(got >= a / lam, small)


def test_update_tau_huge_k_stays_finite():
    # |omega| = 1e-10 and lam = 1e-6 put nu**2 / (2 |omega| lam) beyond
    # 1e12.  There the published transform, in floating point, cancels its
    # smaller root to zero or below on about 40% of these draws.
    gen = RngStream(26)
    nu, u = gen.standard_normal(10_000), gen.random(10_000)
    nu[np.abs(nu) < 0.015] = 0.015
    lam, a = np.full(10_000, 1e-6), np.full(10_000, 1e-10)
    assert (nu * nu * 0.5 / (a * lam)).min() >= 1e12
    tau = update_tau_column(lam, a, nu * nu * 0.5, u / (1.0 - u))
    assert np.all(np.isfinite(tau))
    # The other root has probability below 1e-12, so every draw is the
    # smaller one, tau >= nu**2 / lam**2 > 2e8.
    assert np.all(tau > 2e8)


def test_shrinkage_draws_leave_their_arguments_unchanged():
    # Both helpers only read: |omega| keeps its exact 0.0, and the bank
    # rows stay as drawn.
    gen = RngStream(15)
    abs_omega = np.abs(gen.standard_normal((3, 6)))
    abs_omega[0, 2] = 0.0
    g = gen.standard_gamma(1.01, (3, 6))
    nu, u = gen.standard_normal((3, 6)), gen.random((3, 6))
    half_nu2, odds = nu * nu * 0.5, u / (1.0 - u)
    args = (abs_omega, g, half_nu2, odds)
    before = [a.copy() for a in args]
    lam = update_lambda_column(abs_omega, 1e-6, g)
    lam_before = lam.copy()
    tau = update_tau_column(lam, abs_omega, half_nu2, odds)
    for name, a, b in zip(("abs_omega", "g", "half_nu2", "odds"), args, before, strict=True):
        assert a.tobytes() == b.tobytes(), name
    assert lam.tobytes() == lam_before.tobytes()
    assert np.all(tau > 0.0)


# ---------------------------------------------------------------- sweeps

def make_sim_state(design="circle", p=10, n=30, seed=20):
    model = true_model(design, p)
    rng = RngStream(seed)
    Y = simulate_data(model, n, rng)
    return initial_state(scatter_matrix(Y), n), rng


def test_audit_merge_adds_counts_and_keeps_the_larger_drift():
    pooled = ViolationAudit()
    pooled.merge(ViolationAudit())
    assert pooled == ViolationAudit(0, 0, 0.0)  # an empty pool stays at zero
    pooled.merge(ViolationAudit(40, 3, 2e-12))
    pooled.merge(ViolationAudit(24, 0, 5e-13))
    assert pooled == ViolationAudit(64, 3, 2e-12)
    other = ViolationAudit(8, 1, 7e-12)
    pooled.merge(other)
    assert pooled == ViolationAudit(72, 4, 7e-12)
    assert other == ViolationAudit(8, 1, 7e-12)  # only read


@pytest.mark.parametrize("factor", [2.0**36, 2.0**40])
def test_hrs_from_a_diagonal_start_in_large_units_has_no_violations(factor):
    # Scaling the data by a power of two scales a diag(n / S_jj) start
    # exactly, and no PD test has a floor that such units could reach.
    n = 50
    Y = simulate_data(true_model("circle", 10), n, RngStream(3)) * factor
    st = initial_state(scatter_matrix(Y), n)
    st.omega = np.diag(n / np.diag(st.scatter))
    audit, rng = ViolationAudit(), RngStream(1)
    for _ in range(50):
        sweep(st, ChainConfig("hrs"), audit, rng)
    assert (audit.updates_total, audit.violations) == (500, 0)


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_overflow_in_c_inverse_fails_that_column(kind):
    # In units of 1e100, c Omega11^{-1} overflows as C^{-1} is formed: both
    # grow with S.  Its infinite pivots would give bgs beta = 0 and hrs a
    # = 0, so the column must name the overflow instead, whatever numpy's
    # overflow handling is set to outside the sweep.
    n = 50
    Y = simulate_data(true_model("circle", 10), n, RngStream(3)) * 1e100
    st = initial_state(scatter_matrix(Y), n)
    st.omega = np.diag(n / np.diag(st.scatter))
    audit, rng = ViolationAudit(), RngStream(1)
    with np.errstate(over="ignore"), pytest.raises(
            RuntimeError, match=r"column 0 \(0-based\) failed at stage beta: "
                                r"overflow encountered in multiply"):
        for _ in range(50):
            sweep(st, ChainConfig(kind), audit, rng)
    assert audit == ViolationAudit()


def test_sweep_rejects_a_state_not_positive_definite():
    st, rng = make_sim_state(p=4)
    st.omega = np.array([[1.0, 2.0, 0, 0], [2.0, 1.0, 0, 0],
                         [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        sweep(st, ChainConfig("hrs"), ViolationAudit(), rng)


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_nan_reaching_c_inverse_fails_that_column(kind, monkeypatch):
    # The per-column C^{-1} factor is not scanned for NaN; the sweep's
    # finiteness test on beta' Omega11^{-1} beta (bgs) or the hit-and-run
    # interval (hrs) must stop the column a NaN latent scale reaches, and
    # name the NaN.  In a chain's first sweep, call k of update_tau_column
    # draws column k's pairs j < k alone.
    st, rng = make_sim_state(p=8, n=30)
    original = sampler.update_tau_column
    calls = []

    def poisoned(*args):
        tau = original(*args)
        if len(calls) == 5:
            tau[2] = math.nan
        calls.append(None)
        return tau

    monkeypatch.setattr(sampler, "update_tau_column", poisoned)
    with pytest.raises(RuntimeError,
                       match=r"column 5 \(0-based\) failed at stage beta: .*\bnan\b"):
        sweep(st, ChainConfig(kind), ViolationAudit(), rng)


def test_a_failed_sweep_start_draw_names_its_stage(monkeypatch):
    # From a chain's second sweep on the shrinkage draw belongs to no
    # column, so its failure names the sweep start and the stage.
    st, rng = make_sim_state(p=5)
    sweep(st, ChainConfig(), ViolationAudit(), rng)

    def fail(*args):
        raise FloatingPointError("overflow")

    monkeypatch.setattr(sampler, "update_tau_column", fail)
    with pytest.raises(RuntimeError, match="the sweep start failed at stage shrinkage: overflow"):
        sweep(st, ChainConfig(), ViolationAudit(), rng)


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_carried_sigma_tracks_inverse_after_every_column(kind, monkeypatch):
    st, rng = make_sim_state(p=8, n=30)
    errors = []
    original = sampler.make_partition

    def check():
        inv = np.linalg.inv(st.omega)
        errors.append(np.max(np.abs(represented(st.sigma) - inv)) / np.max(np.abs(inv)))

    def checked(*args):
        # Called as column i begins, after column i - 1's diagonal write and
        # Sigma update and before column i's downdate, when only the carried
        # triangle of Sigma is current.
        check()
        return original(*args)

    monkeypatch.setattr(sampler, "make_partition", checked)
    for _ in range(5):
        sweep(st, ChainConfig(kind), ViolationAudit(), rng)
        check()  # after the sweep's last column
    assert len(errors) == 5 * (8 + 1)
    assert max(errors) < 1e-9


def test_schur_audit_counts_what_a_full_cholesky_finds(monkeypatch):
    p = 20
    st, rng = make_sim_state(design="circle", p=p, n=30)
    full = []
    original = sampler.bgs_update_beta

    def audited(*args):
        # omega with the new off-diagonal column written in and its old
        # diagonal entry kept is the matrix the audit tests.
        beta = original(*args)
        i = len(full) % p
        tested = st.omega.copy()
        tested[i] = tested[:, i] = beta
        tested[i, i] = st.omega.item(i, i)
        full.append(not is_pd(tested))
        return beta

    monkeypatch.setattr(sampler, "bgs_update_beta", audited)
    audit = ViolationAudit()
    for _ in range(40):
        sweep(st, ChainConfig("bgs"), audit, rng)
    assert len(full) == audit.updates_total == 40 * p
    assert audit.violations == sum(full)
    assert audit.violations > 100


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_sweep_factorisation_budget(kind, monkeypatch):
    # One Cholesky of omega per sweep, one in-place factor of C^{-1} per
    # column, which both samplers' beta draws share, and the one inverse
    # that gives Sigma: no other O(p^3) step.  Each of a column's two rank-1
    # updates is one dsyr with its formula's scalar as alpha, and the second
    # one, on v - e_i, also writes Sigma's row and column i, so no vector is
    # scaled for it: dscal scales only hrs's direction.  bgs applies
    # Omega11^{-1} once, to the new column, and one daxpy adds alpha times
    # the old column to its overrelaxed draw; hrs applies it twice, to the
    # old column and the direction, and two daxpy make the new column and
    # its product.
    # Only bgs takes the scale move, once per sweep where n > p.
    # Every helper the benchmark traces is counted through the module
    # attribute it replaces, so a sweep that bound one locally would show
    # zero calls here, as it would zero its traced time.
    p = 20
    st, rng = make_sim_state(p=p, n=30)
    beta = f"{kind}_update_beta"
    names = ("pd_check", "_dpotrf", "invert_from_factor", "make_partition",
             "_factor_c_inverse", beta, "update_gamma", "update_lambda_column",
             "update_tau_column", "_dsyr", "_dscal", "_dsymv", "_daxpy", "scale_move")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(sampler, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sampler, name, counted(name))
    per_sweep = []
    for _ in range(3):
        before = dict(calls)
        sweep(st, ChainConfig(kind), ViolationAudit(), rng)
        per_sweep.append({name: calls[name] - before[name] for name in calls})
    # Every sweep draws beta for all p columns and scales its p gamma draws
    # in one call.  The shrinkage budget: a chain's first sweep draws
    # column i's pairs as the column begins, p calls each, and every later
    # sweep draws them all as it begins, one call each.
    per_column = {"bgs": {"_dsymv": p, "_daxpy": p, "_dscal": 0},
                  "hrs": {"_dsymv": 2 * p, "_daxpy": 2 * p, "_dscal": p}}
    expect = [{"pd_check": 1, "_dpotrf": p, "invert_from_factor": 1,
               "make_partition": p, "_factor_c_inverse": p, beta: p, "update_gamma": 1,
               "update_lambda_column": draws, "update_tau_column": draws,
               "_dsyr": 2 * p, **per_column[kind], "scale_move": int(kind == "bgs")}
              for draws in (p, 1, 1)]
    assert per_sweep == expect


# The f2py signature line of every routine the package calls positionally,
# as the comment above its binding in matrixcore quotes it.  A scipy that
# reordered a routine's optional arguments would bind a flag to the wrong
# parameter without a word; this fails instead.
POSITIONAL_SIGNATURES = {
    "dsyr": "a = dsyr(alpha,x,[lower,incx,offx,n,a,overwrite_a])",
    "dsymv": "y = dsymv(alpha,a,x,[beta,y,offx,incx,offy,incy,lower,overwrite_y])",
    "ddot": "xy = ddot(x,y,[n,offx,incx,offy,incy])",
    "dscal": "x = dscal(a,x,[n,offx,incx])",
    "daxpy": "z = daxpy(x,y,[n,a,offx,incx,offy,incy])",
    "dtrtrs": "x,info = dtrtrs(a,b,[lower,trans,unitdiag,lda,overwrite_b])",
    "dpotrf": "c,info = dpotrf(a,[lower,clean,overwrite_a])",
    "dpotri": "inv_a,info = dpotri(c,[lower,overwrite_c])",
}


@pytest.mark.parametrize("name", POSITIONAL_SIGNATURES)
def test_positional_call_signatures_are_pinned(name):
    line = POSITIONAL_SIGNATURES[name]
    routine = getattr(matrixcore, f"_{name}")
    assert routine is getattr(blas, name, None) or routine is getattr(lapack, name)
    assert routine.__doc__.splitlines()[0] == line
    assert f"# {line}\n_{name} = " in Path(matrixcore.__file__).read_text()


# ---------------------------------------------------------------- reference kernel

def draw_bank(gen, p, n, r):
    """The per-sweep random bank, in the documented order and shapes:
    banks 3-5 hold one entry per pair {j, k}, j <= k, at pair_position."""
    d = p * (p + 1) // 2
    return (gen.standard_normal((p, p)),
            gen.standard_gamma(n / 2.0 + 1.0, p),
            gen.standard_gamma(r + 1.0, d),
            gen.standard_normal(d),
            gen.random(d))


def pair_position(p, j, k):
    """Position of the pair {j, k} in the upper triangle of a p x p matrix,
    diagonal included, read row by row."""
    j, k = min(j, k), max(j, k)
    return j * p - j * (j - 1) // 2 + k - j


def shrinkage_row(g, nu, u, abs_omega, s):
    """The rates Ga(r + 1, s + |omega_ij|), from bank 3's row g, and the
    latent scales 1/tau ~ IG(rates/a, rates**2) by the closed-form
    Michael-Schucany-Haas draw, from bank rows nu and u, for one row
    a = |omega|.  u (t + a) <= t is u / (1 - u) a <= t."""
    rates = g / (abs_omega + s)
    h = nu * nu * 0.5 / rates
    t = abs_omega + h + np.sqrt(h * (h + 2.0 * abs_omega))
    tau = np.where(u / (1.0 - u) * abs_omega <= t, t, abs_omega * abs_omega / t) / rates
    return rates, tau


def shrinkage_rows(G_lambda, NU, U, omega, s, i):
    """Row i of the rates and of the latent scales, drawn by shrinkage_row
    from row i of omega as it stands now and, in slot k, from the bank
    entries of the pair {i, k}, so that the two rows of a pair read one
    draw."""
    m = [pair_position(len(omega), i, k) for k in range(len(omega))]
    return shrinkage_row(G_lambda[m], NU[m], U[m], np.abs(omega[i]), s)


def reference_sweep(st, config, rng, first_sweep):
    """The masked column kernel written plainly: the bank drawn up front,
    every shrinkage row drawn from omega as the sweep begins, a pair reading
    one draw from either of its rows (in the first sweep column i's row
    drawn as the column begins, unit entries from slot i on and a unit
    lambda22), Sigma kept full and symmetric after every column, BLAS dsyr
    and dsymv on its upper triangle (numpy indexing) for the rank-1 updates
    and the products, Omega11^{-1}'s row and column i zeroed and Sigma's
    written by hand, bgs's overrelaxed draw and the whitened hrs step on
    the old column with slot i zeroed, the hrs step with bank 5's diagonal
    entry of i as its uniform, BLAS daxpy for alpha times bgs's old column
    and for hrs's two updated vectors, gamma draws scaled by 1/rate, the
    closed-form Michael-Schucany-Haas draw inline, and, for bgs, the scale
    move on the finished sweep with its log density written out.

    sweep() is tuned for speed but must reproduce this bit for bit: same
    random draws in the same order, same floating-point operations.
    Returns the audit counts (updates, violations).
    """
    def symv(a, x):
        return blas.dsymv(1.0, a.T, x, lower=1)

    def syr(alpha, x, a):
        # a + alpha x x' on the upper triangle, then mirrored.
        a = a.copy()
        blas.dsyr(alpha, x, a=a.T, lower=1, overwrite_a=1)
        return represented(a)

    p = st.omega.shape[0]
    omega = st.omega
    sigma = invert_from_factor(pd_check(omega))
    Z, G_gamma, G_lambda, NU, U = draw_bank(rng, p, st.n, config.r)
    z_move = Z[0, 0]
    np.fill_diagonal(Z, 0.0)
    violations = 0
    if not first_sweep:
        drawn = [shrinkage_rows(G_lambda, NU, U, omega, config.s, i) for i in range(p)]
    for i in range(p):
        if first_sweep:
            rates, tau12 = shrinkage_rows(G_lambda, NU, U, omega, config.s, i)
            tau12[i + 1:] = 1.0
            lambda22 = 1.0
        else:
            rates, tau12 = drawn[i]
            lambda22 = rates[i]
        # sweep leaves its tau_ii draw in slot i; bit for bit equality with
        # this unit slot checks that slot i is decoupled.
        tau12[i] = 1.0
        inv_tau12 = 1.0 / tau12

        o11 = syr(-1.0 / sigma[i, i], sigma[:, i].copy(), sigma)
        o11[i, :] = 0.0
        o11[:, i] = 0.0
        s12, s22 = st.scatter[:, i].copy(), float(st.scatter[i, i])
        s12[i] = 0.0
        beta = omega[:, i].copy()
        beta[i] = 0.0
        omega22_old = omega[i, i]
        cinv = (s22 + 2.0 * lambda22) * o11
        cinv.flat[:: p + 1] += inv_tau12
        L, info = lapack.dpotrf(cinv, lower=1, clean=1)
        assert info == 0
        if config.kind == "bgs":
            # mu + alpha (beta - mu) + sqrt(1 - alpha**2) L^{-T} z, mu =
            # -C s12, as L^{-T} (sqrt(1 - alpha**2) z - L^{-1} (1 - alpha)
            # s12) + alpha beta, with alpha = 0 in a chain's first sweep and
            # wherever n <= p.
            alpha = OVERRELAX if st.n > p and not first_sweep else 0.0
            y = lapack.dtrtrs(L, (1.0 - alpha) * s12, lower=1)[0]
            beta = blas.daxpy(beta, lapack.dtrtrs(
                L, math.sqrt(1.0 - alpha * alpha) * Z[i] - y, lower=1, trans=1)[0], a=alpha)
        else:
            # Whitened step: x = L' beta moves along e = Z[i] / |Z[i]|,
            # d = L^{-T} e has d' C^{-1} d = 1, so the step has unit
            # variance; the roots come from their product, -gamma / a.
            w = symv(o11, beta)
            gam_old = float(omega22_old - beta @ w)
            d = lapack.dtrtrs(L, Z[i], lower=1, trans=1)[0]
            d = d * (1.0 / math.sqrt(float(Z[i] @ Z[i])))
            v = symv(o11, d)
            a, b = float(d @ v), float(d @ w)
            mu = -(float(s12 @ d) + (s22 + 2.0 * lambda22) * b + float((beta * inv_tau12) @ d))
            disc = math.sqrt(b * b + a * gam_old)
            q = abs(b) + disc
            lo, hi = (-q / a, gam_old / q) if b >= 0.0 else (-gam_old / q, q / a)
            # The step's uniform is bank 5's entry of the pair {i, i},
            # whose tau_ii draw moves no bit.
            kappa = sample_truncated_normal(mu, lo, hi, U[pair_position(p, i, i)])
            # The new column and Omega11^{-1} times it, each one daxpy: a
            # core whose daxpy fuses a x + y rounds it once, as numpy's
            # kappa * d + beta does not.
            beta = blas.daxpy(d, beta, a=kappa)
            v = blas.daxpy(v, w, a=kappa)
        assert beta[i] == 0.0
        omega[i, :] = omega[:, i] = beta
        if config.kind == "bgs":
            v = symv(o11, beta)
        q = float(beta @ v)
        violations += not omega22_old - q > 0.0

        gam = float(G_gamma[i] * (1.0 / (s22 / 2.0 + lambda22)))
        omega[i, i] = gam + q
        sigma = syr(1.0 / gam, v, o11)
        sigma[i, :] = sigma[:, i] = v * (-1.0 / gam)
        sigma[i, i] = 1.0 / gam
    if config.kind == "bgs" and st.n > p:
        # The scale move, where n > p: propose eta from bank 1's (0, 0)
        # entry and accept by bank 5's entry of the pair {0, 0}.
        d = p * (p + 1) // 2
        rows, cols = np.triu_indices(p)

        def g(eta):
            a = math.exp(eta)
            log_prior = np.log(config.s + a * np.abs(omega[rows, cols]))
            return ((st.n * p / 2.0 + d) * eta - a * float(np.sum(st.scatter * omega)) / 2.0
                    - (config.r + 1.0) * float(np.sum(log_prior)))

        eta = z_move * 2.4 / math.sqrt(max(st.n * p / 2.0 - config.r * d, 1.0))
        if math.log1p(-U[pair_position(p, 0, 0)]) < g(eta) - g(0.0):
            omega *= math.exp(eta)
            sigma = sigma * (1.0 / math.exp(eta))
    st.sigma = sigma
    return p, violations


# What each kind of SAMPLER_KINDS claims: exact, that it targets the stated
# posterior, and pd_assured, that every audited column update stays positive
# definite.  test_posterior.py builds every exactness case list from it, and
# every zero-violation check here reads it, so a new kind meets every oracle
# once it is stated here, and fails the suite until it is.
KIND_CLAIMS = {"bgs": dict(exact=True, pd_assured=False),
               "hrs": dict(exact=False, pd_assured=True)}


def test_kind_claims_state_every_sampler_kind():
    assert KIND_CLAIMS.keys() == set(SAMPLER_KINDS)


# The cells of the bitwise test, which test_digests.py also runs under each
# forced OpenBLAS core.  Odd p run the BLAS tail code of the rank-1 updates
# and the in-place row and column writes.
KERNEL_CELLS = [(design, p, n, kind)
                for design, p, n in (("circle", 30, 50), ("circle", 13, 30), ("circle", 31, 30),
                                     ("star", 8, 5), ("ar1", 2, 5), ("ar2", 100, 50))
                for kind in SAMPLER_KINDS]


@pytest.mark.parametrize("design,p,n,kind", KERNEL_CELLS)
def test_sweep_matches_reference_kernel_bitwise(design, p, n, kind):
    # The one statement of what a sweep does: its draws, in bank order and
    # of fixed shape, its floating-point operations and its audit counts.
    st, _ = make_sim_state(design=design, p=p, n=n, seed=40)
    ref = initial_state(st.scatter, n)
    rng, ref_rng = RngStream(41), RngStream(41)
    config = ChainConfig(kind)
    audit = ViolationAudit()
    updates = violations = 0
    # p = 100, n < p at the size of a fit, runs OpenBLAS's blocked
    # factorisations; the plain reference is slow there, so a few sweeps.
    for k in range(40 if p < 100 else 4):
        sweep(st, config, audit, rng)
        du, dv = reference_sweep(ref, config, ref_rng, first_sweep=(k == 0))
        updates += du
        violations += dv
    for name in ("omega", "sigma"):
        M = getattr(st, name)
        assert np.array_equal(M, getattr(ref, name)), name
        # A full-matrix A - u u' (dger) comes out asymmetric on the Haswell
        # kernel; the one carried triangle must stay exactly symmetric.
        assert np.array_equal(M, M.T), name
    assert (audit.updates_total, audit.violations) == (updates, violations)
    # both streams sit at the same position afterwards
    assert rng.random() == ref_rng.random()
    if KIND_CLAIMS[kind]["pd_assured"]:
        assert violations == 0
    elif design == "circle":
        assert violations > 0  # the audit branch is exercised, not just zero


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_slot_i_is_decoupled_whatever_tau_ii_is(kind, monkeypatch):
    # From a chain's second sweep on, slot i of column i's 1/tau12 holds the
    # 1/tau_ii of the sweep-start draw, on C^{-1}'s decoupled pivot (see the
    # sampler's module docstring).  Forced to either end of the floats, it
    # moves no bit of omega, Sigma or the audit.  The test reads no argument
    # of a column step, so every kind runs it as it is.
    p = 13
    all_pairs, diagonal = p * (p + 1) // 2, pair_index(p).diagonal()
    original = sampler.update_tau_column
    fired = []

    def run():
        st, rng = make_sim_state(p=p, seed=40)
        audit = ViolationAudit()
        for _ in range(12):
            sweep(st, ChainConfig(kind), audit, rng)
        return st.omega.tobytes(), st.sigma.tobytes(), audit

    def forced_to(tau_ii):
        def forced(*args):
            tau = original(*args)
            # Only the sweep-start draw holds every pair; a chain's first
            # sweep draws column i's pairs j < i as the column begins.
            if tau.size == all_pairs:
                tau[diagonal] = tau_ii
                fired.append(tau_ii)
            return tau
        monkeypatch.setattr(sampler, "update_tau_column", forced)
        return run()

    assert run() == forced_to(1e-300) == forced_to(1e307)
    assert fired == [1e-300] * 11 + [1e307] * 11


def test_sweeps_leave_scatter_unchanged():
    # A column's s12 is a row view of a zero-diagonal copy of S, not of
    # S itself; S must come out of every sweep bit for bit as it went in.
    for kind in SAMPLER_KINDS:
        st, rng = make_sim_state(design="ar2", p=12, n=8, seed=60)
        before = st.scatter.copy()
        for _ in range(5):
            sweep(st, ChainConfig(kind), ViolationAudit(), rng)
        assert st.scatter.tobytes() == before.tobytes(), kind


def test_sigma_drift_is_recorded_and_small():
    st, rng = make_sim_state(design="circle", p=20, n=30)
    audit = ViolationAudit()
    sweep(st, ChainConfig("bgs"), audit, rng)
    assert audit.sigma_drift_max == 0.0  # nothing carried into the first sweep
    for _ in range(30):
        sweep(st, ChainConfig("bgs"), audit, rng)
    assert 0.0 < audit.sigma_drift_max < 1e-9


# ---------------------------------------------------------------- scale move

def test_scale_move_is_a_metropolis_step_on_the_log_scale(monkeypatch):
    # eta = w z, w = 2.4 / sqrt(max(np/2 - r d, 1)), is accepted iff
    # log(1 - u) < g(eta) - g(0), with g the posterior log density of
    # e^eta omega times the Jacobian e^(d eta), written out here.  An
    # accepted step scales omega by e^eta and Sigma by e^-eta, a rejected
    # one moves no bit, and no generator is called.
    base = swept_state()
    p, n, r, s = 10, base.n, 1e-2, 1e-6
    d = p * (p + 1) // 2
    rows, cols = np.triu_indices(p)

    def g(eta):
        a = math.exp(eta)
        return ((n * p / 2.0 + d) * eta - a * np.sum(base.scatter * base.omega) / 2.0
                - (r + 1.0) * np.sum(np.log(s + a * np.abs(base.omega[rows, cols]))))

    monkeypatch.setattr(np, "random", None)
    for name in ("random", "gauss", "normalvariate"):
        monkeypatch.setattr(random, name, None)
    outcomes = []
    for z in (-3.0, -0.8, -0.1, 0.2, 1.1, 3.0):
        for u in (0.05, 0.5, 0.95):
            st = fresh_state(base.omega, base.scatter, n)
            eta = z * 2.4 / math.sqrt(max(n * p / 2.0 - r * d, 1.0))
            scale_move(st, r, s, z, u)
            accepted = not np.array_equal(st.omega, base.omega)
            assert accepted == (math.log1p(-u) < g(eta) - g(0.0)), (z, u)
            a = math.exp(eta) if accepted else 1.0
            assert np.array_equal(st.omega, base.omega * a)
            assert np.array_equal(st.sigma, base.sigma * (1.0 / a))
            np.testing.assert_allclose(st.sigma @ st.omega, np.eye(p), atol=1e-12)
            outcomes.append(accepted)
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize("n,steps", [(10, False), (11, True)])
def test_bgs_takes_its_two_steps_only_where_n_exceeds_p(n, steps, monkeypatch):
    # Where n <= p, omega grows along null(S) (ROADMAP item 16) and the
    # scale move would speed that up, and overrelaxation alone costs log
    # det ESS, so bgs keeps Wang's plain draw there and takes no move.
    moves, alphas = [], set()
    original = sampler.bgs_update_beta

    def recorded(*args):
        alphas.add(args[-1])
        return original(*args)

    monkeypatch.setattr(sampler, "scale_move", lambda *args: moves.append(args))
    monkeypatch.setattr(sampler, "bgs_update_beta", recorded)
    st, rng = make_sim_state(p=10, n=n)
    for _ in range(3):
        sweep(st, ChainConfig("bgs"), ViolationAudit(), rng)
    assert len(moves) == 3 * steps
    assert alphas == ({0.0, OVERRELAX} if steps else {0.0})


# ---------------------------------------------------------------- scale warm-up

def fresh_state(omega, scatter, n):
    """A state holding omega and its inverse as the carried sigma."""
    st = state_with_omega(omega, scatter, n)
    st.sigma = spd_inverse(st.omega)
    return st


def swept_state():
    """A bgs chain's state after three sweeps of circle p = 10, n = 30 data,
    with a freshly inverted sigma."""
    st, rng = make_sim_state()
    for _ in range(3):
        sweep(st, ChainConfig("bgs"), ViolationAudit(), rng)
    return fresh_state(st.omega, st.scatter, st.n)


def assert_settles_at_the_mode(omega, S, n, r, s):
    """settle_scale lands within one grid step of the brute-force mode,
    the argmax of log pi(a omega) + d log a on a grid of log a, and scales
    omega by its a.  The closed form is that mode once every a |omega_ij|
    >> s."""
    p = omega.shape[0]
    rows, cols = np.triu_indices(p)
    log_a = np.linspace(-40.0, 40.0, 400_001)
    a = np.exp(log_a)
    log_post = (n / 2.0 * (p * log_a + np.linalg.slogdet(omega)[1]) - a * np.vdot(S, omega) / 2.0
                - (r + 1.0) * np.log(s + a[:, None] * np.abs(omega[rows, cols])).sum(axis=1)
                + rows.size * log_a)
    best = log_a[np.argmax(log_post)]
    assert -39.0 < best < 39.0
    st = fresh_state(omega, S, n)
    settled = sampler.settle_scale(st, r)
    assert abs(math.log(settled) - best) <= log_a[1] - log_a[0]
    assert np.array_equal(st.omega, settled * omega)


@pytest.mark.parametrize("r,s,c", [(1e-2, 1e-6, 1.0), (1e-2, 1e-6, 40.0)])
def test_settle_scale_picks_the_mode_of_the_orbit_p3(r, s, c):
    gen = np.random.default_rng(43)
    p, n = 3, 4
    S = scatter_matrix(gen.standard_normal((n, p)))
    assert_settles_at_the_mode(c * random_spd(p, gen), S, n, r, s)


@pytest.mark.parametrize("s", [1e-250])
def test_settle_scale_picks_the_mode_of_the_orbit_p4(s):
    # At s = 1e-250 every a |omega_ij| / (s + a |omega_ij|) rounds to 1,
    # so the closed form is the orbit's mode, far below (c = e^-8) and far
    # above (c = e^8) it alike.  settle_scale reads no s, so the s of the
    # brute-force mode need not be one that a chain accepts.
    p = 4
    gen = np.random.default_rng(19)
    for n, r in [(5, 1e-2), (2, 0.3), (1, 0.15), (50, 9.0)]:
        assert n * p > 2.0 * r * p * (p + 1) / 2.0
        for c in (math.exp(-8.0), 1.0, math.exp(8.0)):
            S = scatter_matrix(gen.standard_normal((n, p)))
            assert_settles_at_the_mode(c * random_spd(p, gen), S, n, r, s)


@pytest.mark.parametrize("p,n,r,s,c", [(4, 1, 1.0, 1e-6, 50.0), (4, 2, 1.0, 1e-250, 50.0),
                                       (4, 5, 2.5, 1e-250, 50.0), (4, 1, 10.0, 1.0, 50.0),
                                       (4, 2, 0.5, 1e-2, 50.0), (3, 4, 3.0, 1.0, 0.05),
                                       (3, 4, 3.0, 1.0, 20.0), (3, 4, 1.0, 1e-3, 1.0),
                                       (4, 5, 1.0, 1e-6, 1.0)])
def test_settle_scale_moves_nothing_where_np_is_at_most_2rd(p, n, r, s, c):
    # There the orbit's mode sits where s, not the data, puts it, and the
    # closed form is not positive; at p = 4, n = 5, r = 1 it is exactly 0.
    # The step reads no s: each cell's s is the prior it stands for.
    assert n * p <= 2.0 * r * p * (p + 1) / 2.0
    gen = np.random.default_rng(43)
    st = fresh_state(c * random_spd(p, gen), scatter_matrix(gen.standard_normal((n, p))), n)
    omega, sigma = st.omega.tobytes(), st.sigma.tobytes()
    assert sampler.settle_scale(st, r) == 1.0
    assert st.omega.tobytes() == omega and st.sigma.tobytes() == sigma


@pytest.mark.parametrize("c", [1e-3, 0.5, 7.0])
def test_settle_scale_depends_only_on_the_orbit(c):
    st = swept_state()
    scaled = fresh_state(c * st.omega, st.scatter, st.n)
    a = sampler.settle_scale(st, 1e-2)
    assert abs(math.log(a)) > 1e-3  # the swept state is not at its orbit's mode
    sampler.settle_scale(scaled, 1e-2)
    assert np.abs(scaled.omega - st.omega).max() <= 1e-12 * np.abs(st.omega).max()


@pytest.mark.parametrize("r", [1e-2, 1.0, 2.7])
def test_settle_scale_is_the_closed_form(r):
    st = swept_state()
    omega, sigma = st.omega.copy(), st.sigma.copy()
    p, n = omega.shape[0], st.n
    d = p * (p + 1) // 2
    a = sampler.settle_scale(st, r)
    assert a == (n * p - 2 * r * d) / float(np.vdot(st.scatter, omega))
    assert st.omega.tobytes() == (a * omega).tobytes()
    assert st.sigma.tobytes() == (sigma * (1.0 / a)).tobytes()


def test_settle_scale_keeps_omega_symmetric_pd_and_sigma_its_inverse():
    st = swept_state()
    a = sampler.settle_scale(st, 1e-2)
    assert a != 1.0
    assert np.array_equal(st.omega, st.omega.T)
    assert np.array_equal(st.sigma, st.sigma.T)
    pd_check(st.omega)
    assert np.abs(st.sigma @ st.omega - np.eye(10)).max() <= 1e-12


@pytest.mark.parametrize("kind,burn_in,calls", [("bgs", 0, 0), ("bgs", 3, 3),
                                                ("bgs", 120, sampler.SCALE_WARMUP),
                                                ("hrs", 3, 0), ("hrs", 120, 0)])
def test_run_chain_settles_the_scale_in_bgs_warm_up_only(kind, burn_in, calls, monkeypatch):
    swept = []
    original = sampler.settle_scale

    def counted(state, r):
        swept.append(state.sigma is not None)  # after a sweep
        return original(state, r)

    monkeypatch.setattr(sampler, "settle_scale", counted)
    st, _ = make_sim_state(p=5)
    run_chain(st.scatter, st.n, ChainConfig(kind, burn_in=burn_in, draws=2), RngStream(3))
    assert swept == [True] * calls


def test_run_chain_without_burn_in_is_a_loop_of_sweeps():
    st, _ = make_sim_state(p=6)
    out = run_chain(st.scatter, st.n, ChainConfig("bgs", burn_in=0, draws=4, store_draws=True),
                    RngStream(8))
    rng, audit = RngStream(8), ViolationAudit()
    for draw in out.draws:
        sweep(st, ChainConfig("bgs"), audit, rng)
        assert draw.tobytes() == st.omega.tobytes()
    assert out.audit == audit


def test_run_chain_names_the_sweep_of_a_failed_sweep(monkeypatch):
    original, calls = sampler.sweep, []

    def fail_at_sweep_2(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("column 1 (0-based) failed at stage beta: nan")
        return original(*args)

    monkeypatch.setattr(sampler, "sweep", fail_at_sweep_2)
    st, _ = make_sim_state(p=4)
    with pytest.raises(RuntimeError, match=r"^sweep 2 \(0-based\): column 1 \(0-based\) failed "
                                           r"at stage beta: nan$"):
        run_chain(st.scatter, st.n, ChainConfig("bgs", burn_in=2, draws=2), RngStream(1))


@pytest.mark.parametrize("s", [1e-100, S_FLOOR])
def test_a_p_above_n_bgs_chain_at_r_1_keeps_omega_positive_definite(s):
    # circle p = 10, n = 5 at r = 1 has n p = 50 <= 2 r d = 110, so the
    # warm-up leaves the scale alone; settled, omega would fall to the
    # scale of s, and the next sweep would find it not positive definite.
    Y = simulate_data(true_model("circle", 10), 5, RngStream(4))
    cfg = ChainConfig("bgs", burn_in=2, draws=3, r=1.0, s=s, store_draws=True)
    out = run_chain(scatter_matrix(Y), 5, cfg, RngStream(1))
    for omega in out.draws:
        pd_check(omega)


@pytest.mark.parametrize("s", [1e-6, S_FLOOR])
def test_a_bgs_chain_just_above_np_2rd_keeps_omega_positive_definite(s, monkeypatch):
    # circle p = 10, n = 12 at r = 1 has n p - 2 r d = 10, so every warm-up
    # step acts, with a = 10 / tr(S omega) > 0: small while bgs overshoots,
    # and above 1 where the scale move has taken omega below that mode.
    settled = []
    original = sampler.settle_scale

    def recorded(state, r):
        settled.append(original(state, r))

    monkeypatch.setattr(sampler, "settle_scale", recorded)
    Y = simulate_data(true_model("circle", 10), 12, RngStream(4))
    cfg = ChainConfig("bgs", burn_in=sampler.SCALE_WARMUP, draws=3, r=1.0, s=s, store_draws=True)
    out = run_chain(scatter_matrix(Y), 12, cfg, RngStream(1))
    assert len(settled) == sampler.SCALE_WARMUP and all(0.0 < a != 1.0 for a in settled)
    for omega in out.draws:
        pd_check(omega)


# ---------------------------------------------------------------- chains

@pytest.mark.parametrize("design,seed,burn_in,draws", [("ar1", 30, 0, 1), ("star", 32, 2, 10)])
def test_run_chain_keeps_every_retained_draw(design, seed, burn_in, draws):
    rng = RngStream(seed)
    Y = simulate_data(true_model(design, 5), 20, rng)
    cfg = ChainConfig(kind="hrs", burn_in=burn_in, draws=draws, store_draws=True)
    out = run_chain(scatter_matrix(Y), 20, cfg, rng)
    assert len(out.draws) == draws  # every retained sweep, none of the burn-in
    assert out.sweeps_run == burn_in + draws
    assert len({omega.tobytes() for omega in out.draws}) == draws
    for omega in out.draws:
        pd_check(omega)
    assert out.audit.violations == 0
    # the mean is the sum of the stored draws over their count, bit for bit
    assert np.array_equal(out.omega_mean, sum(out.draws) / draws)


@pytest.mark.parametrize("kind,s", [(kind, ChainConfig.s) for kind in SAMPLER_KINDS]
                         + [(kind, S_FLOOR) for kind in SAMPLER_KINDS],
                         ids=list(SAMPLER_KINDS) + [f"{kind}-floor" for kind in SAMPLER_KINDS])
def test_unbounded_shrinkage_draws_keep_a_p_much_larger_than_n_chain_clean(kind, s, monkeypatch):
    # At p = 60 and n = 5 the default s = 1e-6 lets the rates exceed 1e6 and
    # the latent scales fall below 1e-10.  Nothing cuts those draws, and the
    # chain stays finite, positive definite and accurate in its carried Sigma.
    # At s = S_FLOOR every latent scale is still a normal float.
    extremes = {"update_lambda_column": [], "update_tau_column": []}

    def hook(name, extreme):
        original = getattr(sampler, name)

        def hooked(*args):
            out = original(*args)
            extremes[name].append(extreme(out))
            return out
        monkeypatch.setattr(sampler, name, hooked)

    # A chain's first column draws no pair, an empty array.
    hook("update_lambda_column", lambda out: np.max(out, initial=0.0))
    hook("update_tau_column", lambda out: np.min(out, initial=np.inf))
    model = true_model("star", 60)
    rng = RngStream(50)
    Y = simulate_data(model, 5, rng)
    cfg = ChainConfig(kind=kind, burn_in=20, draws=80, s=s, store_draws=True)
    out = run_chain(scatter_matrix(Y), 5, cfg, rng)
    assert max(extremes["update_lambda_column"]) > 1e6
    assert min(extremes["update_tau_column"]) < 1e-10
    if s == S_FLOOR:
        assert min(extremes["update_tau_column"]) >= np.finfo(float).tiny
    for omega in out.draws:
        assert np.all(np.isfinite(omega))
        pd_check(omega)
    assert out.audit.sigma_drift_max < 1e-8
    if KIND_CLAIMS[kind]["pd_assured"]:
        assert out.audit.violations == 0


@pytest.mark.parametrize("r,s", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                 (1.0, math.nan), (-math.inf, 1.0), (0.0, 1.0),
                                 (True, 1.0), (1.0, True), (np.True_, 1.0), (1.0, np.True_)])
def test_chain_config_rejects_non_finite_hyperparameters(r, s):
    # NaN passes a "<= 0" test, and an infinite r or s makes the rate
    # draws infinite or zero.  0 < True < inf, so a bool once ran as 1.0.
    with pytest.raises(ValueError, match="finite and positive"):
        ChainConfig(r=r, s=s)


def test_chain_config_needs_integer_sweep_counts():
    # A float burn_in would otherwise pass and fail later inside range().
    # bool subclasses int, so True and False would otherwise pass as 1 and 0.
    # A chain retains at least one draw.
    for burn_in, draws, bad in ((1.5, 2, "burn_in"), (1, 2.0, "draws"), (True, 2, "burn_in"),
                                (False, 2, "burn_in"), (1, True, "draws"), (1, 0, "draws")):
        with pytest.raises(ValueError, match=f"{bad} must be an integer"):
            ChainConfig(burn_in=burn_in, draws=draws)
    ChainConfig(burn_in=np.int64(1), draws=np.int32(2))


def test_initial_state_needs_an_integer_sample_size():
    # int(7.9) is 7, so a float n would silently sample the n = 7 posterior.
    with pytest.raises(ValueError, match="n must be an integer >= 1, got 7.9"):
        initial_state(np.eye(3), 7.9)
    # bool subclasses int, so True would otherwise give n = 1.
    with pytest.raises(ValueError, match="n must be an integer >= 1, got True"):
        initial_state(np.eye(3), True)
    assert initial_state(np.eye(3), np.int64(7)).n == 7


def test_chain_config_rejects_an_s_below_the_floor():
    # Below about 1e-154 the bound nu**2 s**2 / g**2 on the latent-scale
    # draw's larger root is subnormal, and the beta draw's 1/tau could
    # overflow.
    ChainConfig(s=S_FLOOR)
    with pytest.raises(ValueError, match="at least"):
        ChainConfig(s=1e-300)


def test_chain_config_is_frozen_and_replace_checks_the_copy():
    # The benchmark runs every chain it captures with
    # replace(config, store_draws=True): that must give a checked config,
    # and a field can change only through such a new, checked config.
    config = ChainConfig(kind="hrs", burn_in=1, draws=2)
    stored = replace(config, store_draws=True)
    assert stored == ChainConfig(kind="hrs", burn_in=1, draws=2, store_draws=True)
    assert not config.store_draws
    out = run_chain(np.eye(3), 10, stored, RngStream(1))
    assert len(out.draws) == 2
    with pytest.raises(ValueError, match="sampler kind"):
        replace(config, kind="nope")
    with pytest.raises(FrozenInstanceError):
        config.kind = "nope"


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_run_chain_rejects_a_scatter_diagonal_not_positive(kind, bad):
    # S_jj = 0, an all-zero data column, leaves omega_jj's posterior
    # improper.  (A non-finite S_jj fails the finiteness check first.)
    S = np.eye(4)
    S[2, 2] = bad
    with pytest.raises(ValueError, match=r"variable 2 \(0-based\) has S_jj"):
        run_chain(S, 8, ChainConfig(kind=kind, burn_in=1, draws=2), RngStream(1))


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_chain_names_a_non_finite_scatter_entry(kind, bad):
    # NaN is unequal to itself, so a symmetry test alone would read a NaN
    # S_jj as asymmetry.
    S = np.eye(4)
    S[2, 2] = bad
    with pytest.raises(ValueError, match=r"scatter has a non-finite entry at \(2, 2\)"):
        run_chain(S, 8, ChainConfig(kind=kind, burn_in=1, draws=2), RngStream(1))
    S = np.eye(4)
    S[1, 3] = S[3, 1] = bad
    with pytest.raises(ValueError, match=r"scatter has a non-finite entry at \(1, 3\)"):
        run_chain(S, 8, ChainConfig(kind=kind, burn_in=1, draws=2), RngStream(1))
