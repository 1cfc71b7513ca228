import math

import numpy as np
import pytest
from scipy.linalg import lapack

from bayesglasso import sampler
from bayesglasso.designs import scatter_matrix, simulate_data, true_model
from bayesglasso.distributions import RngStream, sample_truncated_normal
from bayesglasso.matrixcore import PD_TOL, invert_from_factor, pd_check, spd_inverse, symmetrize
from bayesglasso.sampler import (
    EPS_OMEGA,
    LAMBDA_BOUNDS,
    SAMPLER_KINDS,
    TAU_BOUNDS,
    ChainConfig,
    ColumnPartition,
    ViolationAudit,
    bgs_update_beta,
    compute_c_matrix,
    hit_and_run_interval,
    hrs_update_beta,
    initial_state,
    make_partition,
    run_chain,
    sweep,
    update_gamma,
    update_lambda_column,
    update_tau_column,
)


def state_with_omega(omega, scatter=None, n=10, r=1e-2, s=1e-6):
    p = omega.shape[0]
    st = initial_state(scatter if scatter is not None else np.eye(p), n, r, s)
    st.omega = np.array(omega, dtype=float)
    return st


def partition(st, i):
    return make_partition(st, i, spd_inverse(st.omega))


def schur_gamma(part):
    # The Schur complement exactly as hrs_update_beta computes it.
    return float(part.omega22 - part.beta @ (part.omega11_inv @ part.beta))


def simple_partition(omega11_inv, s12, s22, tau12, lambda22, beta, omega22):
    return ColumnPartition(
        omega11_inv=np.asarray(omega11_inv, dtype=float),
        s12=np.asarray(s12, dtype=float),
        s22=float(s22),
        tau12=np.asarray(tau12, dtype=float),
        lambda22=float(lambda22),
        beta=np.asarray(beta, dtype=float),
        omega22=float(omega22),
    )


# ---------------------------------------------------------------- partition

def test_partition_identity_p2():
    st = state_with_omega(np.eye(2))
    part = partition(st, 0)
    assert np.allclose(part.beta, [0.0])
    assert schur_gamma(part) == pytest.approx(1.0)
    assert np.allclose(part.omega11_inv, [[1.0]])


def test_partition_schur_oracle_p2():
    # omega = [[2,1],[1,2]], last column: beta = 1, gamma = 2 - 1*(1/2)*1
    st = state_with_omega(np.array([[2.0, 1.0], [1.0, 2.0]]))
    part = partition(st, 1)
    assert np.allclose(part.beta, [1.0])
    assert part.omega22 == 2.0
    assert schur_gamma(part) == pytest.approx(1.5)
    assert np.allclose(part.omega11_inv, [[0.5]])


def test_partition_blocks_follow_permutation():
    rng = np.random.default_rng(0)
    p = 5
    S = scatter_matrix(rng.standard_normal((20, p)))
    st = initial_state(S, 20)
    A = rng.standard_normal((p, p))
    st.omega = symmetrize(A @ A.T + p * np.eye(p))
    st.tau = symmetrize(np.abs(rng.standard_normal((p, p))) + 0.1)
    np.fill_diagonal(st.tau, 0.0)
    i = 2
    part = partition(st, i)
    # swap permutation: index 2 moves last, index 4 takes its place
    rest = [0, 1, 4, 3]
    assert np.array_equal(part.s12, S[rest, i])
    assert part.s22 == S[i, i]
    assert np.array_equal(part.tau12, st.tau[rest, i])
    assert np.array_equal(part.beta, st.omega[rest, i])
    assert part.lambda22 == st.lam[i]


def test_partition_gamma_roundtrip():
    # rebuilding omega_ii from (gamma, beta) recovers it to 1e-10 relative
    rng = np.random.default_rng(1)
    p = 6
    A = rng.standard_normal((p, p))
    omega = symmetrize(A @ A.T + p * np.eye(p))
    st = state_with_omega(omega)
    for i in range(p):
        part = partition(st, i)
        gamma = schur_gamma(part)
        rest = [p - 1 if j == i else j for j in range(p - 1)]
        rebuilt = gamma + part.beta @ np.linalg.solve(omega[np.ix_(rest, rest)], part.beta)
        assert abs(rebuilt - omega[i, i]) < 1e-10 * abs(omega[i, i])
        assert gamma > 0


def test_partition_index_out_of_range():
    st = state_with_omega(np.eye(3))
    with pytest.raises(IndexError):
        make_partition(st, 3, np.eye(3))


@pytest.mark.parametrize("p", [2, 3, 6])
def test_move_to_last_helpers_match_index_arrays(p):
    gen = np.random.default_rng(p)
    M = gen.standard_normal((p, p))
    for i in range(p):
        rest = np.array([p - 1 if j == i else j for j in range(p - 1)])
        assert np.array_equal(sampler._column(M, i), M[rest, i])
        assert np.array_equal(sampler._take_block(M, i), M[np.ix_(rest, rest)])

        col = gen.standard_normal(p - 1)
        got, want = M.copy(), M.copy()
        sampler._put_column(got, i, col)
        want[rest, i] = col
        want[i, rest] = col
        assert np.array_equal(got, want)

        block = gen.standard_normal((p - 1, p - 1))
        got, want = M.copy(), M.copy()
        sampler._put_block(got, i, block)
        want[np.ix_(rest, rest)] = block
        # row and column i are the caller's to overwrite
        keep = np.arange(p) != i
        assert np.array_equal(got[np.ix_(keep, keep)], want[np.ix_(keep, keep)])


# ---------------------------------------------------------------- C matrix

def test_c_matrix_oracle():
    # Omega11 = I2, s22 = 1, lam22 = 0.5, tau12 = (1,1):
    # C = inv(2 I + I) = I/3
    part = simple_partition(np.eye(2), [0.0, 0.0], 1.0, [1.0, 1.0], 0.5,
                            [0.0, 0.0], 1.0)
    assert np.allclose(compute_c_matrix(part), np.eye(2) / 3.0, atol=1e-14)


def test_c_matrix_large_tau_limit():
    # tau -> inf: C -> Omega11 / (s22 + 2 lam22)
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    omega11 = symmetrize(A @ A.T + 3 * np.eye(3))
    from bayesglasso.matrixcore import spd_inverse
    part = simple_partition(spd_inverse(omega11), np.zeros(3), 1.0,
                            np.full(3, 1e12), 0.5, np.zeros(3), 1.0)
    C = compute_c_matrix(part)
    expect = omega11 / 2.0
    assert np.max(np.abs(C - expect)) < 1e-6 * np.max(np.abs(expect))


def test_c_matrix_always_pd():
    rng = np.random.default_rng(3)
    from bayesglasso.matrixcore import spd_inverse
    for _ in range(50):
        p1 = int(rng.integers(1, 6))
        A = rng.standard_normal((p1, p1))
        omega11 = symmetrize(A @ A.T + p1 * np.eye(p1))
        part = simple_partition(
            spd_inverse(omega11), rng.standard_normal(p1),
            float(np.abs(rng.standard_normal()) + 0.1),
            np.abs(rng.standard_normal(p1)) + 0.05,
            float(np.abs(rng.standard_normal()) + 0.05),
            rng.standard_normal(p1), 1.0)
        assert pd_check(compute_c_matrix(part)) is not None


def test_c_matrix_rejects_bad_tau():
    part = simple_partition(np.eye(2), [0.0, 0.0], 1.0, [1.0, -1.0], 0.5,
                            [0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        compute_c_matrix(part)


# ---------------------------------------------------------------- beta draws

def test_bgs_beta_centered_case():
    # s12 = 0 makes the conditional mean zero
    part = simple_partition(np.eye(3), np.zeros(3), 1.0, np.ones(3), 0.5,
                            np.zeros(3), 1.0)
    gen = RngStream(1).gen
    draws = np.array([bgs_update_beta(part, gen.standard_normal(3)) for _ in range(10_000)])
    C = compute_c_matrix(part)
    se = math.sqrt(C[0, 0] / 10_000)
    assert np.max(np.abs(draws.mean(axis=0))) < 4 * se


def test_bgs_beta_mean_matches_formula():
    part = simple_partition(np.eye(2), [0.7, -0.3], 2.0, [0.5, 2.0], 0.25,
                            [0.0, 0.0], 1.0)
    C = compute_c_matrix(part)
    expect = -C @ part.s12
    gen = RngStream(2).gen
    draws = np.array([bgs_update_beta(part, gen.standard_normal(2)) for _ in range(100_000)])
    se = np.sqrt(np.diag(C) / 100_000)
    assert np.all(np.abs(draws.mean(axis=0) - expect) < 4 * se)


def test_bgs_single_factor_draw_moments():
    # The draw comes from one Cholesky factor of C^{-1}; its first two
    # moments must still be -C s12 and C, with C formed independently.
    rng = np.random.default_rng(40)
    A = rng.standard_normal((3, 3))
    omega11 = symmetrize(A @ A.T + 3 * np.eye(3))
    part = simple_partition(spd_inverse(omega11), [0.9, -0.4, 0.2], 2.5,
                            [0.3, 1.5, 0.8], 0.6, np.zeros(3), 1.0)
    C = compute_c_matrix(part)
    n = 40_000
    gen = RngStream(41).gen
    draws = np.array([bgs_update_beta(part, gen.standard_normal(3)) for _ in range(n)])
    se_mean = np.sqrt(np.diag(C) / n)
    assert np.all(np.abs(draws.mean(axis=0) + C @ part.s12) < 4 * se_mean)
    # Var of a sample covariance entry: (C_ii C_jj + C_ij^2) / n.
    se_cov = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C * C) / n)
    assert np.all(np.abs(np.cov(draws, rowvar=False) - C) < 4 * se_cov)


def test_hit_and_run_interval_unit_case():
    lo, hi = hit_and_run_interval(np.array([1.0]), np.array([0.0]),
                                  np.array([[1.0]]), 1.0)
    assert lo == pytest.approx(-1.0)
    assert hi == pytest.approx(1.0)


def test_hit_and_run_interval_quadratic_oracle():
    # a=1, b=0.5, c=-1 gives roots -0.5 +- sqrt(1.25)
    lo, hi = hit_and_run_interval(np.array([1.0, 0.0]), np.array([0.5, 0.0]),
                                  np.eye(2), 1.0)
    assert lo == pytest.approx(-0.5 - math.sqrt(1.25))
    assert hi == pytest.approx(-0.5 + math.sqrt(1.25))


def test_hit_and_run_interval_brackets_zero():
    rng = np.random.default_rng(4)
    stream = RngStream(5)
    from bayesglasso.matrixcore import spd_inverse
    for _ in range(1000):
        p1 = int(rng.integers(1, 5))
        A = rng.standard_normal((p1, p1))
        omega11 = symmetrize(A @ A.T + p1 * np.eye(p1))
        inv = spd_inverse(omega11)
        beta = rng.standard_normal(p1)
        gamma = float(np.abs(rng.standard_normal()) + 1e-6)
        alpha = stream.gen.standard_normal(p1)
        alpha /= math.sqrt(float(alpha @ alpha))
        lo, hi = hit_and_run_interval(alpha, beta, inv, gamma)
        assert lo < 0.0 < hi


def test_hit_and_run_interval_rejects_non_pd_state():
    with pytest.raises(ValueError, match="state not positive definite"):
        hit_and_run_interval(np.array([1.0]), np.array([0.0]),
                             np.array([[1.0]]), 0.0)


def test_hrs_beta_always_feasible():
    rng = np.random.default_rng(6)
    stream = RngStream(7)
    from bayesglasso.matrixcore import spd_inverse
    for _ in range(300):
        p1 = int(rng.integers(1, 6))
        A = rng.standard_normal((p1, p1))
        omega11 = symmetrize(A @ A.T + p1 * np.eye(p1))
        inv = spd_inverse(omega11)
        beta = rng.standard_normal(p1) * 0.3
        gamma = float(np.abs(rng.standard_normal()) + 0.01)
        omega22 = gamma + beta @ inv @ beta
        part = simple_partition(inv, rng.standard_normal(p1),
                                float(np.abs(rng.standard_normal()) + 0.1),
                                np.abs(rng.standard_normal(p1)) + 0.05,
                                float(np.abs(rng.standard_normal()) + 0.05),
                                beta, omega22)
        new_beta = hrs_update_beta(part, stream.gen.standard_normal(p1), stream)
        assert new_beta @ inv @ new_beta < omega22


def test_hrs_unbounded_matches_bgs_distribution():
    # With omega22 huge the truncation interval is effectively the whole
    # line and, in one dimension, a hit-and-run update is an exact draw
    # from the unconstrained conditional, so HRS and BGS must agree.
    inv = np.array([[0.5]])  # Omega11 = [[2]]
    beta0 = np.array([0.3])
    omega22 = 1e12
    part = simple_partition(inv, [0.8], 1.5, [0.7], 0.4, beta0, omega22)
    n = 40_000
    h = RngStream(8)
    b = RngStream(9)
    hrs_draws = np.array([hrs_update_beta(part, h.gen.standard_normal(1), h)[0]
                          for _ in range(n)])
    bgs_draws = np.array([bgs_update_beta(part, b.gen.standard_normal(1))[0]
                          for _ in range(n)])
    C = compute_c_matrix(part)[0, 0]
    se_mean = math.sqrt(C / n)
    assert abs(hrs_draws.mean() - bgs_draws.mean()) < 4 * math.sqrt(2) * se_mean
    assert abs(hrs_draws.var(ddof=1) - bgs_draws.var(ddof=1)) < 4 * C * math.sqrt(2.0 / n) * math.sqrt(2)


# ---------------------------------------------------------------- scalars

def test_update_gamma_moments_and_support():
    part = simple_partition(np.eye(1), [0.0], 1.0, [1.0], 0.5, [0.0], 1.0)
    g = RngStream(10).gen.standard_gamma(50 / 2 + 1, 100_000)
    draws = update_gamma(part, g)
    assert np.all(draws > 0)
    # Ga(26, 1): mean 26
    assert abs(draws.mean() - 26.0) < 0.2


def test_update_lambda_moments():
    # r=1, s=1, |omega|=1: Ga(2, 2) has mean 1
    g = RngStream(11).gen.standard_gamma(1.0 + 1.0, 100_001)
    lam12, lam22 = update_lambda_column(np.ones(100_000), 1.0, 1.0, g)
    assert abs(lam12.mean() - 1.0) < 0.02
    assert lam22 > 0


def test_update_lambda_clamped():
    # r=0.01, s=1e-6, omega=0: unclamped mean would be 1.01e6
    g = RngStream(12).gen.standard_gamma(0.01 + 1.0, 10_001)
    lam12, lam22 = update_lambda_column(np.zeros(10_000), 0.0 + 1.0, 1e-6, g)
    assert np.all(lam12 >= 1e-6)
    assert np.all(lam12 <= 1e6)
    assert np.any(lam12 == 1e6)  # the clamp actually engages
    assert lam12.min() > 0


def test_update_tau_ig_mean_oracle():
    # lambda=1, |omega|=1: 1/tau ~ IG(1, 1) has mean 1
    gen = RngStream(13).gen
    nu, u = gen.standard_normal(100_000), gen.random(100_000)
    tau = update_tau_column(np.ones(100_000), np.ones(100_000), nu, u)
    assert abs((1.0 / tau).mean() - 1.0) < 0.02


def test_update_tau_zero_omega_floored():
    gen = RngStream(14).gen
    nu, u = gen.standard_normal(1000), gen.random(1000)
    tau = update_tau_column(np.ones(1000), np.zeros(1000), nu, u)
    assert np.all(np.isfinite(tau))
    assert np.all(tau > 0)
    assert np.all(tau >= 1e-10)
    assert np.all(tau <= 1e10)


# ---------------------------------------------------------------- sweeps

def make_sim_state(kind="circle", p=10, n=30, seed=20):
    model = true_model(kind, p)
    rng = RngStream(seed)
    Y = simulate_data(model, n, rng)
    return initial_state(scatter_matrix(Y), n), rng


def test_sweep_keeps_exact_symmetry_and_audit_counts():
    st, rng = make_sim_state()
    audit = ViolationAudit()
    sweep(st, "hrs", audit, rng, skip_first_beta=True)
    p = st.omega.shape[0]
    assert audit.updates_total == p
    assert np.max(np.abs(st.omega - st.omega.T)) == 0.0
    assert np.max(np.abs(st.tau - st.tau.T)) == 0.0
    assert np.all(np.diagonal(st.tau) == 0.0)
    assert np.all(st.lam > 0)


def test_hrs_sweep_never_violates():
    st, rng = make_sim_state(p=8, n=5)  # n < p on purpose
    audit = ViolationAudit()
    for k in range(50):
        sweep(st, "hrs", audit, rng, skip_first_beta=(k == 0))
        assert pd_check(st.omega) is not None
    assert audit.violations == 0
    assert audit.updates_total == 50 * 8


def test_bgs_sweep_records_violations_and_continues():
    st, rng = make_sim_state(kind="circle", p=20, n=30)
    audit = ViolationAudit()
    for k in range(60):
        sweep(st, "bgs", audit, rng, skip_first_beta=(k == 0))
    assert audit.violations > 0
    assert audit.violations <= audit.updates_total
    # the chain kept going and the state stayed finite
    assert np.all(np.isfinite(st.omega))


def test_sweep_rejects_bad_kind_and_bad_state():
    st, rng = make_sim_state(p=4)
    with pytest.raises(ValueError, match="sampler kind"):
        sweep(st, "mh", ViolationAudit(), rng)
    st.omega = np.array([[1.0, 2.0, 0, 0], [2.0, 1.0, 0, 0],
                         [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        sweep(st, "hrs", ViolationAudit(), rng)


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_carried_sigma_tracks_inverse_after_every_column(kind, monkeypatch):
    st, rng = make_sim_state(p=8, n=30)
    errors = []
    original = sampler.update_lambda_column

    def checked(*args, **kwargs):
        # Called after the column's diagonal write and Sigma update.
        inv = np.linalg.inv(st.omega)
        errors.append(np.max(np.abs(st.sigma - inv)) / np.max(np.abs(inv)))
        return original(*args, **kwargs)

    monkeypatch.setattr(sampler, "update_lambda_column", checked)
    for k in range(5):
        sweep(st, kind, ViolationAudit(), rng, skip_first_beta=(k == 0))
    assert len(errors) == 5 * 8
    assert max(errors) < 1e-9


def test_schur_audit_counts_what_a_full_cholesky_finds(monkeypatch):
    st, rng = make_sim_state(kind="circle", p=20, n=30)
    full = []
    original = sampler.update_gamma

    def audited(part, g):
        # omega now holds the new off-diagonal column and the old diagonal.
        full.append(pd_check(st.omega) is None)
        return original(part, g)

    monkeypatch.setattr(sampler, "update_gamma", audited)
    audit = ViolationAudit()
    for k in range(40):
        sweep(st, "bgs", audit, rng, skip_first_beta=(k == 0))
    assert len(full) == audit.updates_total == 40 * 20
    assert audit.violations == sum(full)
    assert audit.violations > 100


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_sweep_factorisation_budget(kind, monkeypatch):
    # One Cholesky of omega per sweep plus one of C^{-1} per column, and the
    # one inverse that gives Sigma: no other O(p^3) step in the column loop.
    p = 12
    st, rng = make_sim_state(p=p, n=30)
    sweep(st, kind, ViolationAudit(), rng, skip_first_beta=True)
    calls = {"pd_check": 0, "invert_from_factor": 0}

    def counted(name):
        original = getattr(sampler, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sampler, name, counted(name))
    sweep(st, kind, ViolationAudit(), rng)
    assert calls["pd_check"] <= p + 1
    assert calls["invert_from_factor"] == 1


def test_first_sweep_guard_changes_draw_sequence():
    st1, _ = make_sim_state(seed=21)
    st2, _ = make_sim_state(seed=21)
    r1, r2 = RngStream(99), RngStream(99)
    sweep(st1, "hrs", ViolationAudit(), r1, skip_first_beta=True)
    sweep(st2, "hrs", ViolationAudit(), r2, skip_first_beta=False)
    assert not np.array_equal(st1.omega, st2.omega)


# ---------------------------------------------------------------- reference kernel

def draw_bank(gen, p, n, r):
    """The per-sweep random bank, in the documented order and shapes."""
    return (gen.standard_normal((p, p - 1)),
            gen.standard_gamma(n / 2.0 + 1.0, p),
            gen.standard_gamma(r + 1.0, (p, p)),
            gen.standard_normal((p, p - 1)),
            gen.random((p, p - 1)))


def reference_sweep(st, kind, rng, skip_first_beta):
    """The column kernel written plainly: the bank drawn up front, a
    take/take partition, np.outer, np.ix_ writes, gamma draws scaled by
    1/rate, np.clip and the Michael-Schucany-Haas transform inline.

    sweep() is tuned for speed but must reproduce this bit for bit: same
    random draws in the same order, same floating-point operations.
    Returns the audit counts (updates, violations).
    """
    gen = rng.gen
    p = st.omega.shape[0]
    omega, tau, lam = st.omega, st.tau, st.lam
    sigma = st.sigma = invert_from_factor(pd_check(omega))
    Z, G_gamma, G_lambda, NU, U = draw_bank(gen, p, st.n, st.r)
    violations = 0
    for i in range(p):
        rest = np.array([p - 1 if j == i else j for j in range(p - 1)])
        u = sigma[rest, i] * (1.0 / math.sqrt(sigma[i, i]))
        o11 = sigma.take(rest, axis=0).take(rest, axis=1) - np.outer(u, u)
        s12, s22 = st.scatter[rest, i], float(st.scatter[i, i])
        beta = omega[rest, i]
        if not (skip_first_beta and i == 0):
            cinv = (s22 + 2.0 * lam[i]) * o11
            cinv.flat[::p] += 1.0 / tau[rest, i]
            L, info = lapack.dpotrf(cinv, lower=1, clean=1)
            assert info == 0
            if kind == "bgs":
                y = lapack.dtrtrs(L, s12, lower=1)[0]
                beta = lapack.dtrtrs(L, Z[i] - y, lower=1, trans=1)[0]
            else:
                gam_old = float(omega[i, i] - beta @ (o11 @ beta))
                d = lapack.dtrtrs(L, Z[i], lower=1, trans=1)[0]
                d = d / math.sqrt(float(d @ d))
                w = cinv @ d
                denom = float(d @ w)
                mu = -(float(s12 @ d) + float(beta @ w)) / denom
                v = o11 @ d
                a, b = float(d @ v), float(beta @ v)
                disc = math.sqrt(b * b + a * gam_old)
                kappa = sample_truncated_normal(
                    mu, math.sqrt(1.0 / denom), (-b - disc) / a, (-b + disc) / a, rng)
                beta = beta + kappa * d
            omega[rest, i] = beta
            omega[i, rest] = beta
        v = o11 @ beta
        q = float(beta @ v)
        violations += not omega[i, i] - q > PD_TOL * PD_TOL

        gam = float(G_gamma[i] * (1.0 / (s22 / 2.0 + lam[i])))
        omega22 = gam + q
        omega[i, i] = omega22
        w = v * (1.0 / math.sqrt(gam))
        sigma[np.ix_(rest, rest)] = o11 + np.outer(w, w)
        sigma[rest, i] = sigma[i, rest] = v * (-1.0 / gam)
        sigma[i, i] = 1.0 / gam

        rates = np.append(np.abs(beta) + st.s, st.s + omega22)
        draws = np.clip(G_lambda[i] * (1.0 / rates), *LAMBDA_BOUNDS)
        lam12 = draws[:-1]
        lam[i] = draws[-1]

        mean = lam12 / np.maximum(np.abs(beta), EPS_OMEGA)
        shape = lam12 * lam12
        my = mean * NU[i] * NU[i]
        x = mean + mean * (my - np.sqrt(my * (4.0 * shape + my))) / (2.0 * shape)
        x = np.fmax(x, 1e-300 * np.fmax(mean * mean, 1.0))
        upsilon = np.where(U[i] * (mean + x) <= mean, x, mean * mean / x)
        tau[rest, i] = tau[i, rest] = np.clip(1.0 / np.fmax(upsilon, 1e-300), *TAU_BOUNDS)
    return p, violations


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
@pytest.mark.parametrize("design,p,n", [("circle", 30, 50), ("star", 8, 5), ("ar1", 2, 5)])
def test_sweep_matches_reference_kernel_bitwise(kind, design, p, n):
    st, _ = make_sim_state(kind=design, p=p, n=n, seed=40)
    ref = initial_state(st.scatter, n)
    rng, ref_rng = RngStream(41), RngStream(41)
    audit = ViolationAudit()
    updates = violations = 0
    for k in range(40):
        sweep(st, kind, audit, rng, skip_first_beta=(k == 0))
        du, dv = reference_sweep(ref, kind, ref_rng, skip_first_beta=(k == 0))
        updates += du
        violations += dv
    for name in ("omega", "tau", "lam", "sigma"):
        assert np.array_equal(getattr(st, name), getattr(ref, name)), name
    assert (audit.updates_total, audit.violations) == (updates, violations)
    # both streams sit at the same position afterwards
    assert rng.gen.random() == ref_rng.gen.random()
    if kind == "bgs" and design == "circle":
        assert violations > 0  # the audit branch is exercised, not just zero


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_sweep_stream_is_fixed_shape(kind, monkeypatch):
    # Two different states with equal n and r consume the same draws from
    # equal streams: the bank and, for hrs, only the truncated-normal steps
    # besides it, which are sent to a side stream here.
    side = RngStream(0)
    original = sampler.sample_truncated_normal

    def on_side_stream(mu, sigma, lo, hi, rng):
        return original(mu, sigma, lo, hi, side)

    monkeypatch.setattr(sampler, "sample_truncated_normal", on_side_stream)
    p = 9
    st1, _ = make_sim_state(kind="circle", p=p, n=30, seed=50)
    st2, _ = make_sim_state(kind="star", p=p, n=30, seed=51)
    for k in range(3):
        sweep(st2, kind, ViolationAudit(), RngStream(52), skip_first_beta=(k == 0))
    fresh = RngStream(53)
    draw_bank(fresh.gen, p, 30, st1.r)
    rng1, rng2 = RngStream(53), RngStream(53)
    sweep(st1, kind, ViolationAudit(), rng1, skip_first_beta=True)
    sweep(st2, kind, ViolationAudit(), rng2)
    assert not np.array_equal(st1.omega, st2.omega)
    assert rng1.gen.random() == rng2.gen.random() == fresh.gen.random()


def test_sigma_drift_is_recorded_and_small():
    st, rng = make_sim_state(kind="circle", p=20, n=30)
    audit = ViolationAudit()
    sweep(st, "bgs", audit, rng, skip_first_beta=True)
    assert audit.sigma_drift_max == 0.0  # nothing carried into the first sweep
    for _ in range(30):
        sweep(st, "bgs", audit, rng)
    assert 0.0 < audit.sigma_drift_max < 1e-9


# ---------------------------------------------------------------- chains

def test_run_chain_minimal():
    model = true_model("ar1", 5)
    rng = RngStream(30)
    Y = simulate_data(model, 20, rng)
    cfg = ChainConfig(kind="hrs", burn_in=0, draws=1, store_draws=True)
    out = run_chain(scatter_matrix(Y), 20, cfg, rng)
    assert len(out.draws) == 1
    assert pd_check(out.draws[0]) is not None
    assert np.array_equal(out.omega_mean, out.draws[0])
    assert out.audit.violations == 0
    assert out.sweeps_run == 1


def test_run_chain_deterministic_bitwise():
    model = true_model("ar2", 6)
    data_rng = RngStream(31)
    Y = simulate_data(model, 25, data_rng)
    S = scatter_matrix(Y)
    cfg = ChainConfig(kind="bgs", burn_in=5, draws=10)
    out1 = run_chain(S, 25, cfg, RngStream(77, 3))
    out2 = run_chain(S, 25, cfg, RngStream(77, 3))
    assert np.array_equal(out1.omega_mean, out2.omega_mean)
    assert out1.audit.violations == out2.audit.violations
    assert out1.audit.updates_total == out2.audit.updates_total


def test_run_chain_stores_every_retained_draw():
    model = true_model("star", 5)
    rng = RngStream(32)
    Y = simulate_data(model, 20, rng)
    S = scatter_matrix(Y)
    cfg = ChainConfig(kind="hrs", burn_in=2, draws=10, store_draws=True)
    out = run_chain(S, 20, cfg, rng)
    assert len(out.draws) == 10  # every retained sweep, none of the burn-in
    assert out.sweeps_run == 12
    assert not np.array_equal(out.draws[0], out.draws[1])
    # the mean is the sum of the stored draws over their count, bit for bit
    assert np.array_equal(out.omega_mean, sum(out.draws) / 10)


def test_run_chain_validates_config():
    with pytest.raises(ValueError):
        run_chain(np.eye(3), 10, ChainConfig(kind="nope"), RngStream(1))
    with pytest.raises(ValueError):
        run_chain(np.eye(3), 10, ChainConfig(draws=0), RngStream(1))
    with pytest.raises(ValueError):
        run_chain(np.eye(1), 10, ChainConfig(), RngStream(1))
