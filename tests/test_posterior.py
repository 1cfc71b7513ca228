"""Samplers against the exact posterior of a p=2 model.

For p = 2 the marginal posterior of omega (shrinkage rates integrated out)
is, on the positive definite cone,

    |Omega|^{n/2} exp(-tr(S Omega)/2) (s + |w12|)^{-(r+1)}
        (s + w11)^{-(r+1)} (s + w22)^{-(r+1)},

which a midpoint grid over (w11, w22, w12) integrates to well below the
Monte Carlo error of a desk-scale chain.  Chain means are compared with
the grid means in units of their batch-means standard error.
"""

import numpy as np

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
