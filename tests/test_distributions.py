import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.stats import truncnorm

from bayesglasso.distributions import RngStream, sample_truncated_normal
from bayesglasso.sampler import EPS_OMEGA, TAU_BOUNDS, update_tau_column

N_DRAWS = 100_000


def inverse_gaussian(mean, shape, gen):
    """IG(mean, shape) draws as the reciprocal of the sampler's latent-scale
    update, 1/tau ~ IG(lambda/a, lambda**2) with lambda = sqrt(shape) and
    a = lambda/mean: one standard normal per entry, then one uniform per
    entry, transformed the way the sweep transforms its bank."""
    size = np.broadcast_shapes(np.shape(mean), np.shape(shape))
    lam = np.broadcast_to(np.sqrt(shape), size)
    nu = gen.standard_normal(size)
    u = gen.random(size)
    return 1.0 / update_tau_column(lam, lam / mean, nu * nu * 0.5, u / (1.0 - u))


def test_streams_deterministic():
    a = RngStream(123, 5)
    b = RngStream(123, 5)
    assert np.array_equal(a.gen.random(64), b.gen.random(64))
    a2 = RngStream(123, 5)
    b2 = RngStream(123, 5)
    draws_a = [a2.gen.standard_gamma(2.0) for _ in range(10)]
    draws_b = [b2.gen.standard_gamma(2.0) for _ in range(10)]
    assert draws_a == draws_b


def test_distinct_streams_differ():
    a = RngStream(123, 0)
    b = RngStream(123, 1)
    assert not np.array_equal(a.gen.random(16), b.gen.random(16))


def test_inverse_gaussian_moments():
    # IG(2, 1): mean 2, variance mean^3/shape = 8
    gen = RngStream(5).gen
    draws = inverse_gaussian(np.full(N_DRAWS, 2.0), 1.0, gen)
    se_mean = math.sqrt(8.0 / N_DRAWS)
    assert abs(draws.mean() - 2.0) < 4 * se_mean
    assert abs(draws.mean() - 2.0) < 0.05
    assert abs(draws.var(ddof=1) - 8.0) < 0.5


def test_inverse_gaussian_support_and_errors():
    gen = RngStream(6).gen
    draws = inverse_gaussian(np.full(5000, 0.3), 0.2, gen)
    assert np.all(draws > 0)
    assert inverse_gaussian(np.ones(1), 1.0, gen)[0] > 0
    # The transform checks nothing; nu = 0 and the smallest and largest
    # uniforms are still inside its domain and give positive draws.
    for u in (0.0, 1.0 - 2.0 ** -53):
        tau = update_tau_column(np.ones(1), np.ones(1), np.zeros(1), np.array([u / (1.0 - u)]))
        assert tau[0] > 0


def msh_tau(lam, a, nu, u):
    """tau = 1/IG(lam/a, lam**2) by the Michael-Schucany-Haas (1976)
    transform as published, evaluated in 60-digit decimal arithmetic so
    that its cancellation cannot blur the comparison.  Returns the draw
    before clamping and whether the smaller root was taken."""
    with localcontext() as ctx:
        ctx.prec = 60
        lam, a, nu, u = Decimal(lam), Decimal(a), Decimal(nu), Decimal(u)
        mean, shape = lam / a, lam * lam
        my = mean * nu * nu
        x = mean + mean * (my - (my * (4 * shape + my)).sqrt()) / (2 * shape)
        small = u * (mean + x) <= mean
        return float(1 / x if small else x / (mean * mean)), small


def test_update_tau_closed_form_matches_msh_oracle():
    gen = RngStream(25).gen
    grid = np.logspace(-3.0, 3.0, 13)
    lam, a = (v.ravel().repeat(8) for v in np.meshgrid(grid, grid))
    nu, u = gen.standard_normal(lam.shape), gen.random(lam.shape)
    k = nu * nu * 0.5 / (a * lam)
    keep = k <= 1e4
    lam, a, nu, u, k = lam[keep], a[keep], nu[keep], u[keep], k[keep]
    assert keep.sum() > 1000 and k.max() > 1e3
    got = update_tau_column(lam, a, nu * nu * 0.5, u / (1.0 - u))
    oracle = [msh_tau(*args) for args in zip(lam.tolist(), a.tolist(), nu.tolist(), u.tolist())]
    want = np.clip([t for t, _ in oracle], *TAU_BOUNDS)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # The same branch: with r = 1 + k + sqrt(k (k + 2)) the smaller root
    # gives tau = (a/lam) r >= a/lam, the other tau = (a/lam)/r <= a/lam.
    small = np.array([b for _, b in oracle])
    assert 0 < small.sum() < small.size
    assert np.array_equal(got >= a / lam, small)


def test_update_tau_huge_k_stays_finite():
    # |omega| = 1e-10 and lam = 1e-6 put k = nu**2 / (2 a lam) beyond 1e12.
    # There the published transform, in floating point, cancels its smaller
    # root to zero or below on about 40% of these draws.
    gen = RngStream(26).gen
    nu, u = gen.standard_normal(10_000), gen.random(10_000)
    nu[np.abs(nu) < 0.015] = 0.015
    lam, a = np.full(10_000, 1e-6), np.full(10_000, 1e-10)
    assert (nu * nu * 0.5 / (a * lam)).min() >= 1e12
    tau = update_tau_column(lam, a, nu * nu * 0.5, u / (1.0 - u))
    assert np.all(np.isfinite(tau))
    assert np.all((tau >= TAU_BOUNDS[0]) & (tau <= TAU_BOUNDS[1]))
    # r > 2k >= 2e12 and the other root has probability 1/(r + 1), so every
    # draw is the smaller root, tau = r a/lam > 2e8
    assert np.all(tau > 2e8)


def test_inverse_gaussian_extreme_parameters_stay_finite():
    # Both ends of the clamped parameter range: lam and |omega| at their
    # floors, and lam at its ceiling with a large |omega|.
    gen = RngStream(7).gen
    for lam, abs_omega in ((1e-6, 0.0), (1e-6, EPS_OMEGA), (1e6, 1e3), (1e6, 0.0)):
        tau = inverse_gaussian(np.full(1000, lam / max(abs_omega, EPS_OMEGA)), lam * lam, gen)
        assert np.all(np.isfinite(tau))
        assert np.all(tau > 0)


def truncnorm_draws(mu, lo, hi, seed, n):
    """n draws of the truncated normal, one banked-style uniform each."""
    return np.array([sample_truncated_normal(mu, lo, hi, u)
                     for u in RngStream(seed).gen.random(n).tolist()])


def test_truncnorm_symmetric_interval():
    draws = truncnorm_draws(0.0, -1.0, 1.0, 8, N_DRAWS)
    assert np.all((draws > -1.0) & (draws < 1.0))
    assert abs(draws.mean()) < 0.01
    # The smallest and largest uniforms the generator can return are moved
    # inside (0, 1) before the inverse CDF, so neither lands on an endpoint.
    for u in (0.0, 1.0 - 2.0 ** -53):
        assert -1.0 < sample_truncated_normal(0.0, -1.0, 1.0, u) < 1.0


def test_truncnorm_far_tail_oracle():
    # quadrature oracle: E[Z | 5 < Z < 6] = 5.183147090477174
    draws = truncnorm_draws(0.0, 5.0, 6.0, 9, N_DRAWS)
    assert np.all((draws > 5.0) & (draws < 6.0))
    assert abs(draws.mean() - 5.183147090477174) < 0.01


def test_truncnorm_mirrored_tail_oracle():
    # quadrature oracle: E[Z | -30 < Z < -29] = -29.034403502535711
    draws = truncnorm_draws(0.0, -30.0, -29.0, 10, 20_000)
    assert np.all((draws > -30.0) & (draws < -29.0))
    assert abs(draws.mean() + 29.034403502535711) < 0.002


def test_truncnorm_unbounded_reduces_to_normal():
    draws = truncnorm_draws(3.0, -np.inf, np.inf, 11, N_DRAWS)
    assert abs(draws.mean() - 3.0) < 0.02
    assert abs(draws.var(ddof=1) - 1.0) < 0.02


def test_truncnorm_shifted_scaled():
    # interval 5 units into the tail of a shifted unit-variance normal
    draws = truncnorm_draws(-2.0, 3.0, 4.0, 12, 20_000)
    assert np.all((draws > 3.0) & (draws < 4.0))
    # shifted interval is (5, 6): mean = -2 + 5.183147090477174
    assert abs(draws.mean() - (-2.0 + 5.183147090477174)) < 0.01


@pytest.mark.parametrize("lo,hi", [
    (-1.0, 1.0), (-2.0, 0.1), (5.0, 6.0), (-30.0, -29.0), (-3.0, 50.0),
    (0.5, math.inf), (-math.inf, -40.0), (-math.inf, math.inf)])
def test_truncnorm_is_the_exact_inverse_cdf(lo, hi):
    # The draw is scipy's truncnorm.ppf(u, a, b), and ppf(1 - u, a, b) on an
    # interval mirrored because a + b < 0.  The atol covers ppf values near
    # 0, where no relative agreement is possible.
    u = np.linspace(0.01, 0.99, 99)
    got = [sample_truncated_normal(0.0, lo, hi, v) for v in u.tolist()]
    want = truncnorm.ppf(1.0 - u if lo + hi < 0.0 else u, lo, hi)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_truncnorm_errors():
    # An empty interval has nowhere for the draw to land strictly inside.
    with pytest.raises(ValueError, match="rounded outside"):
        sample_truncated_normal(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="rounded outside"):
        sample_truncated_normal(0.0, 2.0, -2.0, 0.5)
    # Four ulps wide: the inverse CDF rounds onto an endpoint, which raises
    # instead of returning a value outside the open interval.
    with pytest.raises(ValueError, match="rounded outside"):
        sample_truncated_normal(0.0, 1.0, 1.0 + 4 * 2.0 ** -52, 0.5)


def test_truncnorm_unresolvable_interval_returns():
    # No float lies strictly inside (1, nextafter(1, 2)); a sampler that
    # retries can loop forever on this interval.
    with pytest.raises(ValueError, match="rounded outside"):
        sample_truncated_normal(0.0, 1.0, math.nextafter(1.0, 2.0), 0.5)
    # Exactly one float inside: the draw is that float or an error, never
    # a value outside the open interval.
    only = math.nextafter(1.0, 2.0)
    top = math.nextafter(only, 2.0)
    for lo, hi, inside in ((1.0, top, only), (-top, -1.0, -only)):
        for u in (0.0, 0.5, 1.0 - 2.0 ** -53):
            try:
                assert sample_truncated_normal(0.0, lo, hi, u) == inside
            except ValueError as exc:
                assert "rounded outside" in str(exc)
    # A narrow interval the draw can resolve still gives a value inside it.
    x = sample_truncated_normal(0.0, 1.0, 1.0 + 1e-9, 0.5)
    assert 1.0 < x < 1.0 + 1e-9
