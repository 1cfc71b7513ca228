"""Samplers against the exact posterior of two p=2 models, a p=4 model and
a p=5 model with n=3 < p.

For p = 2 the marginal posterior of omega (shrinkage rates integrated out)
is, on the positive definite cone,

    |Omega|^{n/2} exp(-tr(S Omega)/2) (s + |w12|)^{-(r+1)}
        (s + w11)^{-(r+1)} (s + w22)^{-(r+1)},

which a midpoint grid over (w11, w22, w12) integrates to well below the
Monte Carlo error of a desk-scale chain.  Chain means are compared with
the grid means in units of their batch-means standard error.  At p=4 the
same posterior is integrated by importance sampling (see
wishart_is_posterior), and chain means are compared in units of the
chain's and the oracle's standard errors combined; so is it at p=5, n=3,
where S is singular.  hrs is expected to fail at p=4 and at p=5: its step
holds omega22 fixed (ROADMAP item 1).  This file's first p=2 model is too
well determined to show that bias.  The second, D2, runs at the default r
and s, where the posterior has a spike at w12 = 0; a log grid in |w12|
integrates it.
"""

import numpy as np
import pytest

from bayesglasso import sampler
from bayesglasso.designs import scatter_matrix
from bayesglasso.distributions import RngStream
from bayesglasso.sampler import ChainConfig, run_chain

S = 20.0 * np.array([[1.0, 0.5], [0.5, 1.0]])
N_OBS = 20
R = S_HYPER = 1.0


def grid_posterior_means(scatter, n, r, s, m=120, diag_max=5.0, off=(-2.5, 1.5)):
    """Posterior means of (w11, w22, w12) by the midpoint rule on an m**3 grid.

    The box holds all but a negligible share of the mass for the model
    below (its faces carry under 1e-6 of it).
    """
    d = (np.arange(m) + 0.5) * (diag_max / m)
    o = off[0] + (np.arange(m) + 0.5) * ((off[1] - off[0]) / m)
    w11, w22, w12 = np.meshgrid(d, d, o, indexing="ij", sparse=True)
    det = w11 * w22 - w12 * w12
    with np.errstate(invalid="ignore"):
        logf = (0.5 * n * np.log(np.where(det > 0.0, det, np.nan))
                - 0.5 * (scatter[0, 0] * w11 + scatter[1, 1] * w22
                         + 2.0 * scatter[0, 1] * w12)
                - (r + 1.0) * (np.log(s + np.abs(w12)) + np.log(s + w11)
                               + np.log(s + w22)))
    wts = np.exp(logf - np.nanmax(logf))
    wts[np.isnan(wts)] = 0.0
    z = wts.sum()
    return np.array([(wts * w11).sum(), (wts * w22).sum(), (wts * w12).sum()]) / z


def batch_means(x, batches=30):
    b = x[: x.size - x.size % batches].reshape(batches, -1).mean(axis=1)
    return x.mean(), b.std(ddof=1) / np.sqrt(batches)


def test_grid_oracle_is_converged():
    coarse = grid_posterior_means(S, N_OBS, R, S_HYPER, m=80)
    fine = grid_posterior_means(S, N_OBS, R, S_HYPER, m=120)
    assert np.max(np.abs(coarse - fine)) < 1e-4


def test_bgs_matches_exact_posterior_p2():
    exact = grid_posterior_means(S, N_OBS, R, S_HYPER)
    cfg = ChainConfig(kind="bgs", burn_in=500, draws=12_000, r=R, s=S_HYPER,
                      store_draws=True)
    out = run_chain(S, N_OBS, cfg, RngStream(2))
    draws = np.array(out.draws)
    for k, x in enumerate((draws[:, 0, 0], draws[:, 1, 1], draws[:, 0, 1])):
        mean, se = batch_means(x)
        assert abs(mean - exact[k]) < 4.5 * se, (k, mean, exact[k], se)


# ---------------------------------------------------------------- D2

# D2: a weakly correlated p = 2 model at the default r and s.  There the
# prior (s + |w12|)^{-(r+1)} puts about 6% of the posterior within 1e-6 of
# w12 = 0, so a sampler that bounds its shrinkage draws misses it.
D2_S = 20.0 * np.array([[1.0, 0.05], [0.05, 1.0]])
D2_N = 20


def spike_grid_posterior(scatter, n, m, per_decade, r=ChainConfig.r, s=ChainConfig.s):
    """P(|w12| < 1e-6) and E|w12| of a p = 2 posterior by a 3-D midpoint grid.

    w11 and w22 take m midpoints each on (0, 3]; |w12| takes per_decade
    midpoints per decade of t = log|w12| from 1e-16 to 10, each with both
    signs and the Jacobian |w12| as weight.  The log grid resolves the
    prior's spike at w12 = 0, which no linear grid does at s = 1e-6, and
    1e-6 is a cell edge, so the probability is a sum of whole cells.
    """
    d = (np.arange(m) + 0.5) * (3.0 / m)
    w11, w22 = d[:, None, None], d[None, :, None]
    x = 10.0 ** (-16.0 + (np.arange(17 * per_decade) + 0.5) / per_decade)
    det = w11 * w22 - x * x
    with np.errstate(divide="ignore"):
        logf = (0.5 * n * np.log(np.maximum(det, 0.0))
                - 0.5 * (scatter[0, 0] * w11 + scatter[1, 1] * w22)
                - (r + 1.0) * (np.log(s + w11) + np.log(s + w22)))
    wts = np.exp(logf - logf.max()).sum(axis=(0, 1))
    # exp(-tr(S Omega)/2) holds exp(-s12 w12), which tells the signs apart.
    wts *= x * (s + x) ** -(r + 1.0) * np.cosh(scatter[0, 1] * x)
    wts /= wts.sum()
    return wts[x < 1e-6].sum(), wts @ x


def test_spike_grid_oracle_is_converged():
    coarse = spike_grid_posterior(D2_S, D2_N, m=40, per_decade=10)
    fine = spike_grid_posterior(D2_S, D2_N, m=80, per_decade=20)
    assert abs(coarse[0] - fine[0]) < 2e-4
    assert abs(coarse[1] - fine[1]) < 1e-6


def test_bgs_matches_exact_posterior_d2():
    exact = spike_grid_posterior(D2_S, D2_N, m=80, per_decade=20)
    cfg = ChainConfig(kind="bgs", burn_in=1000, draws=20_000, store_draws=True)
    out = run_chain(D2_S, D2_N, cfg, RngStream(2))
    w12 = np.abs(np.array(out.draws)[:, 0, 1])
    for k, x in enumerate(((w12 < 1e-6).astype(float), w12)):
        mean, se = batch_means(x)
        assert abs(mean - exact[k]) < 4.5 * se, (k, mean, exact[k], se)


# ---------------------------------------------------------------- p = 4

# P4: an AR(1)-correlated model at p = 4, small enough for importance
# sampling, large enough that a sweep runs several masked partitions, the
# carried Sigma across columns and full tau rows.
P4_SIGMA = 0.7 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
P4_S = 8.0 * P4_SIGMA
P4_N = 8


def corner_statistics(omega):
    """(w11, w12, w1p, log det) of one p x p precision matrix or a stack of
    them."""
    return np.stack([omega[..., 0, 0], omega[..., 0, 1], omega[..., 0, -1],
                     np.linalg.slogdet(omega)[1]], axis=-1)


def wishart_is_posterior(scatter, n, r, s, scale, rounds, draws, seed=3):
    """Posterior means of corner_statistics and their standard errors by
    self-normalised importance sampling.

    With the rates and scales integrated out, the posterior of omega is

        |Omega|^{n/2} exp(-tr(S Omega)/2) prod_{i<=j} (s + |w_ij|)^{-(r+1)}

    on the positive definite cone.  The proposal is Wishart(nu, V) with
    nu = n + p + 1, drawn by the Bartlett decomposition, whose density is
    proportional to |W|^{(nu-p-1)/2} exp(-tr(V^{-1} W)/2).  Round 0 takes
    V = scale, which is S^{-1} where S is invertible, so that the weight is
    the prior product alone; each of the rounds - 1 adaptation rounds then
    sets V to the previous round's weighted mean over nu, and the last
    round's draws give the estimate.  The standard errors are the
    delta-method ones of a self-normalised ratio.
    """
    p = scatter.shape[0]
    nu = n + p + 1
    gen = np.random.default_rng(seed)
    upper = np.triu_indices(p)
    for _ in range(rounds):
        bartlett = np.tril(gen.standard_normal((draws, p, p)), -1)
        bartlett[:, np.arange(p), np.arange(p)] = np.sqrt(
            gen.chisquare(nu - np.arange(p), (draws, p)))
        factor = np.linalg.cholesky(scale) @ bartlett
        W = factor @ factor.transpose(0, 2, 1)
        logdet = np.linalg.slogdet(W)[1]
        log_target = (0.5 * n * logdet - 0.5 * np.einsum("ij,kji->k", scatter, W)
                      - (r + 1.0) * np.log(s + np.abs(W[:, upper[0], upper[1]])).sum(axis=1))
        log_proposal = (0.5 * (nu - p - 1) * logdet
                        - 0.5 * np.einsum("ij,kji->k", np.linalg.inv(scale), W))
        logw = log_target - log_proposal
        w = np.exp(logw - logw.max())
        w /= w.sum()
        scale = np.einsum("k,kij->ij", w, W) / nu
    f = corner_statistics(W)
    mean = w @ f
    se = np.sqrt((w[:, None] ** 2 * (f - mean) ** 2).sum(axis=0))
    return mean, se, 1.0 / (w @ w)


@pytest.fixture(scope="module")
def p4_oracle():
    """The importance-sampling oracle at P4, computed once for both samplers."""
    return wishart_is_posterior(P4_S, P4_N, R, S_HYPER, np.linalg.inv(P4_S), rounds=2,
                                draws=100_000)


HRS_XFAIL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="hrs holds omega22 fixed, so its beta step targets the "
           "conditional given gamma, not given omega22 (ROADMAP item 1)")


def assert_chain_matches(scatter, n, kind, oracle):
    """Run a 500 + 12k-sweep chain at seed 2 and compare its means of
    corner_statistics with the oracle's, within 4.5 combined standard
    errors."""
    exact, exact_se, _ = oracle
    cfg = ChainConfig(kind=kind, burn_in=500, draws=12_000, r=R, s=S_HYPER,
                      store_draws=True)
    out = run_chain(scatter, n, cfg, RngStream(2))
    stats = corner_statistics(np.array(out.draws))
    for k in range(4):
        mean, se = batch_means(stats[:, k])
        tol = 4.5 * np.hypot(se, exact_se[k])
        assert abs(mean - exact[k]) < tol, (k, mean, exact[k], se, exact_se[k])


@pytest.mark.parametrize("kind,block", [
    pytest.param("bgs", None, id="bgs"),
    # At p = 4 the default shrinkage block spans the whole sweep; blocks of
    # 2 also run pairs that cross a block boundary and pairs inside one.
    pytest.param("bgs", 2, id="bgs-block2"),
    pytest.param("hrs", None, id="hrs", marks=HRS_XFAIL),
])
def test_chain_matches_importance_sampling_posterior_p4(kind, block, p4_oracle, monkeypatch):
    if block is not None:
        monkeypatch.setattr(sampler, "SHRINKAGE_BLOCK", block)
    assert p4_oracle[2] > 20_000  # one adaptation round makes the weights usable
    assert_chain_matches(P4_S, P4_N, kind, p4_oracle)


# ---------------------------------------------------------------- p > n

# P5n3: p = 5 variables and n = 3 observations from an AR(1) covariance, so
# S has rank 3 and no inverse.  This is where the paper places the Gibbs
# sampler's failures; bgs counts about 17% of its column updates here as
# violations and still matches the oracle.
P5N3_SIGMA = 0.7 ** np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
P5N3_S = scatter_matrix(np.random.default_rng(11).multivariate_normal(
    np.zeros(5), P5N3_SIGMA, 3))
P5N3_N = 3


def p5n3_oracle_at(seed):
    """The importance-sampling oracle at P5n3.  S^{-1} does not exist, so
    round 0 proposes around (S + I)^{-1}.  At seed 3 two adaptation rounds
    take the IS ESS from 1.2k to 3.4k to 8.6k, and a third cuts it to
    1.2k."""
    return wishart_is_posterior(P5N3_S, P5N3_N, R, S_HYPER,
                                np.linalg.inv(P5N3_S + np.eye(5)), rounds=3,
                                draws=200_000, seed=seed)


@pytest.fixture(scope="module")
def p5n3_oracle():
    return p5n3_oracle_at(3)


def test_p5n3_oracle_is_converged(p5n3_oracle):
    mean, se, ess = p5n3_oracle
    other, other_se, _ = p5n3_oracle_at(4)
    assert np.linalg.matrix_rank(P5N3_S) == 3
    assert ess > 5_000
    assert np.all(np.abs(mean - other) < 3.0 * np.hypot(se, other_se)), (mean, other)


@pytest.mark.parametrize("kind", [
    pytest.param("bgs", id="bgs"),
    pytest.param("hrs", id="hrs", marks=HRS_XFAIL),
])
def test_chain_matches_importance_sampling_posterior_p5n3(kind, p5n3_oracle):
    assert_chain_matches(P5N3_S, P5N3_N, kind, p5n3_oracle)
