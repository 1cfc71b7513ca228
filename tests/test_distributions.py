import math

import numpy as np
import pytest

from bayesglasso.distributions import RngStream, michael_schucany_haas, sample_truncated_normal
from bayesglasso.sampler import EPS_OMEGA, TAU_BOUNDS, update_tau_column

N_DRAWS = 100_000


def inverse_gaussian(mean, shape, gen):
    """IG(mean, shape) draws: one standard normal per entry, then one uniform
    per entry, fed to the Michael-Schucany-Haas transform."""
    size = np.broadcast_shapes(np.shape(mean), np.shape(shape))
    nu = gen.standard_normal(size)
    u = gen.random(size)
    return michael_schucany_haas(mean, shape, nu, u)


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
    assert float(inverse_gaussian(1.0, 1.0, gen)) > 0
    # The transform checks nothing; u = 0 and nu = 0 are still inside its
    # domain and give positive draws.
    assert michael_schucany_haas(1.0, 1.0, 0.0, 0.0) > 0
    assert michael_schucany_haas(1.0, 1.0, 0.0, np.nextafter(1.0, 0.0)) > 0


def test_inverse_gaussian_is_the_shared_transform_bitwise():
    # The sampler's latent-scale update is the reciprocal of the transform
    # applied to its banked normals and uniforms, clamped, bit for bit.
    lam = np.array([1e-6, 0.3, 2.0, 5e3, 1e6])
    beta = np.array([0.0, -0.2, 1.0, -7.5, 1e-12])
    gen = RngStream(24).gen
    nu, u = gen.standard_normal(lam.shape), gen.random(lam.shape)
    mean = lam / np.maximum(np.abs(beta), EPS_OMEGA)
    upsilon = michael_schucany_haas(mean, lam * lam, nu, u)
    expect = np.clip(1.0 / np.fmax(upsilon, 1e-300), *TAU_BOUNDS)
    assert np.array_equal(update_tau_column(lam, beta, nu, u), expect)


def test_inverse_gaussian_extreme_parameters_stay_finite():
    gen = RngStream(7).gen
    means = np.full(1000, 1e16)
    draws = inverse_gaussian(means, 1e-12, gen)
    assert np.all(np.isfinite(draws))
    assert np.all(draws > 0)


def test_truncnorm_symmetric_interval():
    rng = RngStream(8)
    draws = np.array([sample_truncated_normal(0.0, 1.0, -1.0, 1.0, rng)
                      for _ in range(N_DRAWS)])
    assert np.all((draws > -1.0) & (draws < 1.0))
    assert abs(draws.mean()) < 0.01


def test_truncnorm_far_tail_oracle():
    # quadrature oracle: E[Z | 5 < Z < 6] = 5.183147090477174
    rng = RngStream(9)
    draws = np.array([sample_truncated_normal(0.0, 1.0, 5.0, 6.0, rng)
                      for _ in range(N_DRAWS)])
    assert np.all((draws > 5.0) & (draws < 6.0))
    assert abs(draws.mean() - 5.183147090477174) < 0.01


def test_truncnorm_mirrored_tail_oracle():
    # quadrature oracle: E[Z | -30 < Z < -29] = -29.034403502535711
    rng = RngStream(10)
    draws = np.array([sample_truncated_normal(0.0, 1.0, -30.0, -29.0, rng)
                      for _ in range(20_000)])
    assert np.all((draws > -30.0) & (draws < -29.0))
    assert abs(draws.mean() + 29.034403502535711) < 0.002


def test_truncnorm_unbounded_reduces_to_normal():
    rng = RngStream(11)
    draws = np.array([sample_truncated_normal(3.0, 2.0, -np.inf, np.inf, rng)
                      for _ in range(N_DRAWS)])
    assert abs(draws.mean() - 3.0) < 0.02


def test_truncnorm_shifted_scaled():
    # interval 5 sigma into the tail of a non-standard normal
    rng = RngStream(12)
    draws = np.array([sample_truncated_normal(-2.0, 3.0, 13.0, 16.0, rng)
                      for _ in range(20_000)])
    assert np.all((draws > 13.0) & (draws < 16.0))
    # standardized interval is (5, 6): mean = -2 + 3 * 5.183147090477174
    assert abs(draws.mean() - (-2.0 + 3.0 * 5.183147090477174)) < 0.03


def test_truncnorm_errors():
    rng = RngStream(13)
    with pytest.raises(ValueError, match="empty truncation interval"):
        sample_truncated_normal(0.0, 1.0, 1.0, 1.0, rng)
    with pytest.raises(ValueError, match="empty truncation interval"):
        sample_truncated_normal(0.0, 1.0, 2.0, -2.0, rng)
    with pytest.raises(ValueError, match="sigma"):
        sample_truncated_normal(0.0, 0.0, -1.0, 1.0, rng)


def test_truncnorm_unresolvable_interval_returns():
    # No float lies strictly inside (1, nextafter(1, 2)); the sampler used
    # to retry forever on this interval.
    rng = RngStream(13)
    with pytest.raises(ValueError, match="no float"):
        sample_truncated_normal(0.0, 1.0, 1.0, math.nextafter(1.0, 2.0), rng)
    # Exactly one float inside: it comes back at once, without a draw.
    only = math.nextafter(1.0, 2.0)
    hi = math.nextafter(only, 2.0)
    for seed in range(3):
        rng_one, fresh = RngStream(seed), RngStream(seed)
        assert sample_truncated_normal(0.0, 1.0, 1.0, hi, rng_one) == only
        assert rng_one.gen.random() == fresh.gen.random()
    assert sample_truncated_normal(0.0, 1.0, -hi, -1.0, rng) == -only
    # A narrow interval the draw can resolve still gives a value inside it.
    x = sample_truncated_normal(0.0, 1.0, 1.0, 1.0 + 1e-9, rng)
    assert 1.0 < x < 1.0 + 1e-9
