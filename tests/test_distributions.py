import math

import numpy as np
import pytest

from bayesglasso.distributions import (
    RngStream,
    sample_gamma,
    sample_inverse_gaussian,
    sample_mvn,
    sample_truncated_normal,
    sample_unit_sphere,
)

N_DRAWS = 100_000


def test_streams_deterministic():
    a = RngStream(123, 5)
    b = RngStream(123, 5)
    assert np.array_equal(a.gen.random(64), b.gen.random(64))
    a2 = RngStream(123, 5)
    b2 = RngStream(123, 5)
    draws_a = [sample_gamma(2.0, 3.0, a2) for _ in range(10)]
    draws_b = [sample_gamma(2.0, 3.0, b2) for _ in range(10)]
    assert draws_a == draws_b


def test_distinct_streams_differ():
    a = RngStream(123, 0)
    b = RngStream(123, 1)
    assert not np.array_equal(a.gen.random(16), b.gen.random(16))


def test_gamma_mean_shape26_rate2():
    rng = RngStream(1)
    draws = sample_gamma(np.full(N_DRAWS, 26.0), 2.0, rng)
    se = math.sqrt(26.0 / 4.0 / N_DRAWS)
    assert abs(draws.mean() - 13.0) < 4 * se
    assert abs(draws.mean() - 13.0) < 0.05


def test_gamma_exponential_oracle():
    # shape 1 is the exponential distribution, mean 1/rate
    rng = RngStream(2)
    draws = sample_gamma(np.ones(N_DRAWS), 1.0, rng)
    assert abs(draws.mean() - 1.0) < 0.02


def test_gamma_rate_not_scale():
    # Ga(2, rate=4) has mean 0.5; a scale mix-up would give 8.
    rng = RngStream(3)
    draws = sample_gamma(np.full(N_DRAWS, 2.0), 4.0, rng)
    assert abs(draws.mean() - 0.5) < 0.02


def test_gamma_support_and_errors():
    rng = RngStream(4)
    assert all(sample_gamma(0.5, 0.1, rng) > 0 for _ in range(1000))
    with pytest.raises(ValueError):
        sample_gamma(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_gamma(1.0, -1.0, rng)
    with pytest.raises(ValueError):
        sample_gamma(np.array([1.0, -1.0]), 1.0, rng)


def test_gamma_rate_vector_validation():
    # The sampler's batched call: scalar shape, float vector of rates.
    rng = RngStream(4)
    for rate in ([1.0, 0.0], [1.0, -1.0], [np.nan, -1.0], [-0.0, 1.0]):
        with pytest.raises(ValueError):
            sample_gamma(1.01, np.array(rate), rng)
    with pytest.raises(ValueError):
        sample_gamma(0.0, np.array([1.0, 2.0]), rng)
    # NaN alone passes the check, as it always has, and gives a NaN draw.
    draws = sample_gamma(1.01, np.array([np.nan, 1.0]), rng)
    assert np.isnan(draws[0]) and draws[1] > 0


def test_gamma_rate_vector_matches_numpy_gamma_bitwise():
    rates = np.array([1e-6, 0.5, 3.0, 1e6, 17.25])
    for shape in (1.01, 0.3, 26.0):
        rng, fresh = RngStream(22), RngStream(22)
        draws = sample_gamma(shape, rates, rng)
        assert np.array_equal(draws, fresh.gen.gamma(shape, 1.0 / rates))
        assert rng.gen.random() == fresh.gen.random()
    # Scalars and other argument forms still give the same numbers.
    rng, fresh = RngStream(23), RngStream(23)
    assert sample_gamma(2.0, 3.0, rng) == fresh.gen.gamma(2.0, 1.0 / 3.0)
    assert sample_gamma(2, 3, rng) == fresh.gen.gamma(2.0, 1.0 / 3.0)
    assert np.array_equal(sample_gamma(np.array([2.0, 3.0]), 3.0, rng),
                          fresh.gen.gamma(np.array([2.0, 3.0]), 1.0 / 3.0))


def test_inverse_gaussian_moments():
    # IG(2, 1): mean 2, variance mean^3/shape = 8
    rng = RngStream(5)
    draws = sample_inverse_gaussian(np.full(N_DRAWS, 2.0), 1.0, rng)
    se_mean = math.sqrt(8.0 / N_DRAWS)
    assert abs(draws.mean() - 2.0) < 4 * se_mean
    assert abs(draws.mean() - 2.0) < 0.05
    assert abs(draws.var(ddof=1) - 8.0) < 0.5


def test_inverse_gaussian_support_and_errors():
    rng = RngStream(6)
    draws = sample_inverse_gaussian(np.full(5000, 0.3), 0.2, rng)
    assert np.all(draws > 0)
    assert float(sample_inverse_gaussian(1.0, 1.0, rng)) > 0
    with pytest.raises(ValueError):
        sample_inverse_gaussian(-1.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_inverse_gaussian(1.0, 0.0, rng)
    ones = np.ones(3)
    for mean in ([1.0, 0.0, 2.0], [1.0, -2.0, 2.0], [np.nan, -1.0, 1.0]):
        with pytest.raises(ValueError):
            sample_inverse_gaussian(np.array(mean), ones, rng)
    with pytest.raises(ValueError):
        sample_inverse_gaussian(ones, np.array([1.0, 0.0, 1.0]), rng)


def test_inverse_gaussian_extreme_parameters_stay_finite():
    rng = RngStream(7)
    means = np.full(1000, 1e16)
    draws = sample_inverse_gaussian(means, 1e-12, rng)
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


def test_unit_sphere_dim1():
    rng = RngStream(14)
    vals = {float(sample_unit_sphere(1, rng)[0]) for _ in range(100)}
    assert vals <= {-1.0, 1.0}
    assert len(vals) == 2


def test_unit_sphere_norm():
    rng = RngStream(15)
    for dim in (2, 5, 17):
        for _ in range(200):
            v = sample_unit_sphere(dim, rng)
            assert abs(math.sqrt(float(v @ v)) - 1.0) < 1e-12


def test_unit_sphere_coordinate_symmetry():
    rng = RngStream(16)
    acc = np.zeros(3)
    for _ in range(N_DRAWS):
        acc += sample_unit_sphere(3, rng)
    assert np.max(np.abs(acc / N_DRAWS)) < 0.01


def test_unit_sphere_errors():
    with pytest.raises(ValueError):
        sample_unit_sphere(0, RngStream(17))


def test_mvn_degenerate_covariance():
    rng = RngStream(18)
    mean = np.array([1.0, 2.0])
    for _ in range(100):
        d = sample_mvn(mean, 1e-12 * np.eye(2), rng)
        assert np.max(np.abs(d - mean)) < 1e-5


def test_mvn_standard_normal_variance():
    rng = RngStream(19)
    draws = np.array([sample_mvn(np.zeros(2), np.eye(2), rng)
                      for _ in range(N_DRAWS)])
    assert np.max(np.abs(draws.var(axis=0, ddof=1) - 1.0)) < 0.03


def test_mvn_correlation():
    # ar(1)-style 2x2 covariance with off-diagonal 0.7
    rng = RngStream(20)
    cov = np.array([[1.0, 0.7], [0.7, 1.0]])
    draws = np.array([sample_mvn(np.zeros(2), cov, rng) for _ in range(N_DRAWS)])
    corr = np.corrcoef(draws.T)[0, 1]
    assert abs(corr - 0.7) < 0.01


def test_mvn_errors():
    rng = RngStream(21)
    with pytest.raises(ValueError, match="not positive definite"):
        sample_mvn(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), rng)
    with pytest.raises(ValueError, match="dimension mismatch"):
        sample_mvn(np.zeros(3), np.eye(2), rng)
