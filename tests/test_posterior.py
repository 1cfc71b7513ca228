"""Samplers against the exact posterior of a p=2 and a p=4 model.

For p = 2 the marginal posterior of omega (shrinkage rates integrated out)
is, on the positive definite cone,

    |Omega|^{n/2} exp(-tr(S Omega)/2) (s + |w12|)^{-(r+1)}
        (s + w11)^{-(r+1)} (s + w22)^{-(r+1)},

which a midpoint grid over (w11, w22, w12) integrates to well below the
Monte Carlo error of a desk-scale chain.  Chain means are compared with
the grid means in units of their batch-means standard error.  At p=4 the
same posterior is integrated by importance sampling (see
wishart_is_posterior), and chain means are compared in units of the
chain's and the oracle's standard errors combined.  hrs is expected to
fail at p=4: its step holds omega22 fixed (ROADMAP item 1).  This file's
p=2 model is too well determined to show that bias.
"""

import numpy as np
import pytest

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


# ---------------------------------------------------------------- p = 4

# P4: an AR(1)-correlated model at p = 4, small enough for importance
# sampling, large enough that a sweep runs several masked partitions, the
# carried Sigma across columns and full tau rows.
P4_SIGMA = 0.7 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
P4_S = 8.0 * P4_SIGMA
P4_N = 8


def p4_statistics(omega):
    """(w11, w12, w14, log det) of one precision matrix or a stack of them."""
    return np.stack([omega[..., 0, 0], omega[..., 0, 1], omega[..., 0, 3],
                     np.linalg.slogdet(omega)[1]], axis=-1)


def wishart_is_posterior(scatter, n, r, s, draws=100_000, seed=3):
    """Posterior means of p4_statistics and their standard errors by
    self-normalised importance sampling.

    With the rates and scales integrated out, the posterior of omega is

        |Omega|^{n/2} exp(-tr(S Omega)/2) prod_{i<=j} (s + |w_ij|)^{-(r+1)}

    on the positive definite cone.  The proposal is Wishart(nu, V) with
    nu = n + p + 1, drawn by the Bartlett decomposition, whose density is
    proportional to |W|^{(nu-p-1)/2} exp(-tr(V^{-1} W)/2).  Round 0 takes
    V = S^{-1}, so that its weight is the prior product alone; one
    adaptation round then sets V to the round-0 weighted mean over nu.  The
    standard errors are the delta-method ones of a self-normalised ratio.
    """
    p = scatter.shape[0]
    nu = n + p + 1
    gen = np.random.default_rng(seed)
    scale = np.linalg.inv(scatter)
    upper = np.triu_indices(p)
    for _ in range(2):
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
    f = p4_statistics(W)
    mean = w @ f
    se = np.sqrt((w[:, None] ** 2 * (f - mean) ** 2).sum(axis=0))
    return mean, se, 1.0 / (w @ w)


@pytest.fixture(scope="module")
def p4_oracle():
    """The importance-sampling oracle at P4, computed once for both samplers."""
    return wishart_is_posterior(P4_S, P4_N, R, S_HYPER)


@pytest.mark.parametrize("kind", [
    "bgs",
    pytest.param("hrs", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="hrs holds omega22 fixed, so its beta step targets the "
               "conditional given gamma, not given omega22 (ROADMAP item 1)")),
])
def test_chain_matches_importance_sampling_posterior_p4(kind, p4_oracle):
    exact, exact_se, ess = p4_oracle
    assert ess > 20_000  # one adaptation round makes the weights usable
    cfg = ChainConfig(kind=kind, burn_in=500, draws=12_000, r=R, s=S_HYPER,
                      store_draws=True)
    out = run_chain(P4_S, P4_N, cfg, RngStream(2))
    stats = p4_statistics(np.array(out.draws))
    for k in range(4):
        mean, se = batch_means(stats[:, k])
        tol = 4.5 * np.hypot(se, exact_se[k])
        assert abs(mean - exact[k]) < tol, (k, mean, exact[k], se, exact_se[k])
