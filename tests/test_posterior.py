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
where S is singular.  The first p=2 model, W2, is too well determined to
show a sampler's bias; the second, P2, is strongly correlated.  The third,
D2, runs at the default r and s, where the posterior has a spike at
w12 = 0; a log grid in |w12| integrates it.

Last, Geweke's (2004) joint-distribution test checks each kernel at p = 3
with n = 2 < p and a new S at every step, against exact draws from the
prior.  G3n4 runs it at n = 4 for bgs alone, whose overrelaxed beta step
and scale move run only where n > p, as in W2, P2, D2 and P4.

Every case list comes from test_sampler.KIND_CLAIMS, by one rule.  A kind
that claims to target the stated posterior runs every oracle: W2, P2, D2,
P4, P5n3 and G3.  Any other kind is a strict expected failure at P2, P4,
P5n3 and G3, the four cases where hrs, whose step holds omega22 fixed,
misses (ROADMAP item 1).
"""

import numpy as np
import pytest

from bayesglasso.designs import scatter_matrix
from bayesglasso.distributions import RngStream
from bayesglasso.matrixcore import spd_inverse
from bayesglasso.sampler import (SAMPLER_KINDS, ChainConfig, GibbsState, ViolationAudit,
                                 run_chain, sweep)

from test_sampler import KIND_CLAIMS

R = S_HYPER = 1.0
# The chain every oracle at r = s = 1 is compared with.
CHAIN_12K = dict(burn_in=500, draws=12_000, r=R, s=S_HYPER, store_draws=True)

HRS_XFAIL = pytest.mark.xfail(
    raises=AssertionError,
    reason="hrs holds omega22 fixed, so its beta step targets the "
           "conditional given gamma, not given omega22 (ROADMAP item 1)")


def kind_cases(cases, xfails=()):
    """The pytest.param list of one exactness test, from KIND_CLAIMS.

    cases maps an ID template to the test's arguments before the kind,
    which comes last; each ID is its template formatted with the kind.  An
    exact kind runs every case, any other kind only the templates in
    xfails, each as a strict HRS_XFAIL case.
    """
    return [pytest.param(*args, kind, id=template.format(kind),
                         marks=() if KIND_CLAIMS[kind]["exact"] else HRS_XFAIL)
            for kind in SAMPLER_KINDS for template, args in cases.items()
            if KIND_CLAIMS[kind]["exact"] or template in xfails]


def grid_posterior_means(scatter, n, r, s, m=120, diag_max=5.0, off=(-2.5, 1.5)):
    """Posterior means of (w11, w22, w12) by the midpoint rule on an m**3 grid.

    The default box holds all but a negligible share of W2's mass (its
    faces carry under 1e-6 of it); P2 gives its own.
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


def assert_chain_matches(scatter, n, cfg, statistics, oracle):
    """Run cfg's chain at seed 2 and compare statistics(draws) with the
    oracle by assert_statistics_match."""
    out = run_chain(scatter, n, cfg, RngStream(2))
    assert_statistics_match(statistics(np.array(out.draws)), oracle)


def assert_statistics_match(stats, oracle):
    """Compare the batch means of each column of a chain's stats with the
    oracle's (means, standard errors), within 4.5 standard errors of the
    chain and the oracle combined.  A grid oracle's standard error is 0."""
    exact, exact_se = (np.broadcast_to(v, stats.shape[1:]) for v in oracle)
    for k in range(stats.shape[1]):
        mean, se = batch_means(stats[:, k])
        tol = 4.5 * np.hypot(se, exact_se[k])
        assert abs(mean - exact[k]) < tol, (k, mean, exact[k], se, exact_se[k])


# The p = 2 models at r = s = 1, each as (S, n, fine grid, coarse grid).
# W2 is well determined.  P2 is strongly correlated, with a posterior wide
# enough to need its own box, and shows hrs's bias.
P2_MODELS = {
    "W2": (20.0 * np.array([[1.0, 0.5], [0.5, 1.0]]), 20, dict(m=120), dict(m=80)),
    "P2": (8.0 * np.array([[1.0, 0.8], [0.8, 1.0]]), 8,
           dict(m=200, diag_max=12.0, off=(-11.0, 2.0)),
           dict(m=160, diag_max=10.0, off=(-9.0, 1.5))),
}


@pytest.mark.parametrize("model", P2_MODELS)
def test_grid_oracle_is_converged(model):
    scatter, n, fine, coarse = P2_MODELS[model]
    difference = (grid_posterior_means(scatter, n, R, S_HYPER, **coarse)
                  - grid_posterior_means(scatter, n, R, S_HYPER, **fine))
    assert np.max(np.abs(difference)) < 1e-4


@pytest.mark.parametrize("model,kind", kind_cases({"W2-{}": ("W2",), "P2-{}": ("P2",)},
                                                  xfails=("P2-{}",)))
def test_chain_matches_exact_posterior_p2(model, kind):
    scatter, n, fine, _ = P2_MODELS[model]
    assert_chain_matches(scatter, n, ChainConfig(kind=kind, **CHAIN_12K),
                         lambda draws: draws[:, [0, 1, 0], [0, 1, 1]],
                         (grid_posterior_means(scatter, n, R, S_HYPER, **fine), 0.0))


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


def spike_statistics(draws):
    """(1{|w12| < 1e-6}, |w12|) of each draw."""
    w12 = np.abs(draws[:, 0, 1])
    return np.stack([(w12 < 1e-6).astype(float), w12], axis=-1)


@pytest.mark.parametrize("kind", kind_cases({"{}": ()}))
def test_chain_matches_exact_posterior_d2(kind):
    assert_chain_matches(D2_S, D2_N, ChainConfig(kind=kind, burn_in=1000, draws=20_000,
                                                 store_draws=True),
                         spike_statistics,
                         (spike_grid_posterior(D2_S, D2_N, m=80, per_decade=20), 0.0))


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


@pytest.mark.parametrize("kind", kind_cases({"{}": ()}, xfails=("{}",)))
def test_chain_matches_importance_sampling_posterior_p4(kind, p4_oracle):
    assert p4_oracle[2] > 20_000  # one adaptation round makes the weights usable
    assert_chain_matches(P4_S, P4_N, ChainConfig(kind=kind, **CHAIN_12K), corner_statistics,
                         p4_oracle[:2])


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


@pytest.mark.parametrize("kind", kind_cases({"{}": ()}, xfails=("{}",)))
def test_chain_matches_importance_sampling_posterior_p5n3(kind, p5n3_oracle):
    assert_chain_matches(P5N3_S, P5N3_N, ChainConfig(kind=kind, **CHAIN_12K), corner_statistics,
                         p5n3_oracle[:2])


# ---------------------------------------------------------------- Geweke

# G3: Geweke's successive-conditional simulator at p = 3 with n = 2 < p.  It
# alternates a data draw Y | Omega with one sweep, so a kernel that leaves
# the posterior invariant leaves the joint law of (Omega, Y) invariant, and
# the chain's Omega keeps the prior as its law.  At r = 3 and s = 1 the
# prior is proper enough for rejection to draw it; at the default r and s it
# is nearly improper.
G3_P, G3_N = 3, 2
G3_R, G3_S = 3.0, 1.0


def prior_draws(count, gen):
    """count exact draws of the G3 prior of omega, by rejection.

    With the rates integrated out, the prior of omega is proportional to
    prod_{i<=j} (s + |w_ij|)^{-(r+1)} on the positive definite cone.  Given
    a rate lambda_ij ~ Ga(r, s), w_ij is Laplace with scale 1/lambda_ij off
    the diagonal and exponential with rate lambda_ij on it, which
    integrates to that product; the draws that are not positive definite
    are rejected.
    """
    rows, cols = np.triu_indices(G3_P)
    kept = []
    while sum(map(len, kept)) < count:
        scale = 1.0 / gen.gamma(G3_R, 1.0 / G3_S, (count, rows.size))
        w = np.where(rows == cols, gen.exponential(scale), gen.laplace(0.0, scale))
        omega = np.zeros((count, G3_P, G3_P))
        omega[:, rows, cols] = omega[:, cols, rows] = w
        kept.append(omega[np.linalg.eigvalsh(omega)[:, 0] > 0.0])
    return np.concatenate(kept)[:count]


def geweke_statistics(omega, medians):
    """(rho12, rho12**2, 1{w11 > m11}, 1{log det > m_det}, 1{w13 > 0}) of a
    stack of precision matrices, with (m11, m_det) = medians.  rho12 is the
    partial correlation; each statistic is bounded, so its mean has a
    finite variance under the heavy-tailed prior."""
    rho = -omega[:, 0, 1] / np.sqrt(omega[:, 0, 0] * omega[:, 1, 1])
    return np.stack([rho, rho * rho, omega[:, 0, 0] > medians[0],
                     np.linalg.slogdet(omega)[1] > medians[1], omega[:, 0, 2] > 0.0],
                    axis=-1).astype(float)


@pytest.fixture(scope="module")
def g3_prior():
    """The medians of w11 and log det Omega over 100k prior draws, and the
    means and standard errors of geweke_statistics there."""
    draws = prior_draws(100_000, np.random.default_rng(11))
    medians = (np.median(draws[:, 0, 0]), np.median(np.linalg.slogdet(draws)[1]))
    stats = geweke_statistics(draws, medians)
    return medians, (stats.mean(axis=0), stats.std(axis=0, ddof=1) / np.sqrt(len(stats)))


def geweke_chain(kind, n):
    """30k steps of the successive-conditional simulator with n data rows.

    Each step draws Y ~ N(0, Omega^{-1}) n times and then runs one sweep on
    its S.  The state is given its sigma, so the first-sweep rule, a rule
    for a chain's start and not part of the kernel, never runs."""
    config = ChainConfig(kind=kind, r=G3_R, s=G3_S)
    rng = RngStream(12)
    omega = prior_draws(1, rng)[0]
    chain = np.empty((30_000, G3_P, G3_P))
    for draw in chain:
        sigma = spd_inverse(omega)
        Y = rng.standard_normal((n, G3_P)) @ np.linalg.cholesky(sigma).T
        sweep(GibbsState(omega, scatter_matrix(Y), n, sigma=sigma), config,
              ViolationAudit(), rng)
        draw[...] = omega
    return chain


@pytest.mark.parametrize("kind", kind_cases({"{}": ()}, xfails=("{}",)))
def test_kernel_leaves_the_joint_law_invariant_g3(kind, g3_prior):
    medians, oracle = g3_prior
    assert_statistics_match(geweke_statistics(geweke_chain(kind, G3_N), medians), oracle)


def test_bgs_steps_leave_the_joint_law_invariant_g3n4(g3_prior):
    # bgs overrelaxes beta and moves omega's scale only where n > p, which
    # G3's n = 2 is not; with n = 4 every step takes both.
    medians, oracle = g3_prior
    assert_statistics_match(geweke_statistics(geweke_chain("bgs", G3_P + 1), medians), oracle)
