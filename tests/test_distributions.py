import math

import numpy as np
import pytest
from scipy.stats import truncnorm

from bayesglasso.distributions import RngStream, sample_truncated_normal

N_DRAWS = 100_000


def test_streams_deterministic():
    a = RngStream(123, 5)
    b = RngStream(123, 5)
    assert np.array_equal(a.random(64), b.random(64))
    a2 = RngStream(123, 5)
    b2 = RngStream(123, 5)
    draws_a = [a2.standard_gamma(2.0) for _ in range(10)]
    draws_b = [b2.standard_gamma(2.0) for _ in range(10)]
    assert draws_a == draws_b


@pytest.mark.parametrize("seed,stream_id", [(0, 0), (123, 5), (2**40, 3), (np.int64(7), 2**32)])
def test_stream_is_a_philox_generator_keyed_by_seed_and_stream(seed, stream_id):
    rng = RngStream(seed, stream_id)
    assert isinstance(rng, np.random.Generator)
    key = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    plain = np.random.Generator(np.random.Philox(key))
    assert np.array_equal(rng.random(32), plain.random(32))
    assert np.array_equal(rng.standard_gamma(1.5, 16), plain.standard_gamma(1.5, 16))


def test_stream_keys_must_be_non_negative_integers():
    # int() once truncated a float or bool key, so RngStream(1.5) and
    # RngStream(True) gave the draws of RngStream(1).
    for seed, stream_id, bad in ((1.5, 0, "seed"), (True, 0, "seed"), (-1, 0, "seed"),
                                 (1, 1.7, "stream_id"), (1, np.True_, "stream_id")):
        with pytest.raises(ValueError, match=f"{bad} must be an integer >= 0"):
            RngStream(seed, stream_id)


def test_distinct_streams_differ():
    a = RngStream(123, 0)
    b = RngStream(123, 1)
    assert not np.array_equal(a.random(16), b.random(16))


def truncnorm_draws(mu, lo, hi, seed, n):
    """n draws of the truncated normal, one banked-style uniform each."""
    return np.array([sample_truncated_normal(mu, lo, hi, u)
                     for u in RngStream(seed).random(n).tolist()])


# The means are quadrature oracles: E[Z | 5 < Z < 6] = 5.183147090477174 and
# E[Z | -30 < Z < -29] = -29.034403502535711.  The shifted case is 5 units
# into the tail of a shifted unit-variance normal: its interval is (5, 6)
# for Z, so its mean is -2 + 5.183147090477174.
@pytest.mark.parametrize("mu,lo,hi,seed,n,mean,tol", [
    pytest.param(0.0, -1.0, 1.0, 8, N_DRAWS, 0.0, 0.01, id="symmetric"),
    pytest.param(0.0, 5.0, 6.0, 9, N_DRAWS, 5.183147090477174, 0.01, id="far-tail"),
    pytest.param(0.0, -30.0, -29.0, 10, 20_000, -29.034403502535711, 0.002,
                 id="mirrored-tail"),
    pytest.param(-2.0, 3.0, 4.0, 12, 20_000, -2.0 + 5.183147090477174, 0.01, id="shifted")])
def test_truncnorm_interval_mean(mu, lo, hi, seed, n, mean, tol):
    draws = truncnorm_draws(mu, lo, hi, seed, n)
    assert np.all((draws > lo) & (draws < hi))
    assert abs(draws.mean() - mean) < tol


def test_truncnorm_unbounded_reduces_to_normal():
    draws = truncnorm_draws(3.0, -np.inf, np.inf, 11, N_DRAWS)
    assert abs(draws.mean() - 3.0) < 0.02
    assert abs(draws.var(ddof=1) - 1.0) < 0.02


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
    # Four ulps wide: the inverse CDF rounds onto an endpoint, and the
    # first-order step from that endpoint lands two ulps inside.
    assert sample_truncated_normal(0.0, 1.0, 1.0 + 4 * 2.0 ** -52, 0.5) == 1.0 + 2 * 2.0 ** -52


def test_truncnorm_extreme_uniforms_stay_inside_a_narrow_central_interval():
    # The smallest and largest uniforms the generator can return stay
    # strictly inside (-1, 1) and (-0.1, 0.1).  At u = 0 on (-0.1, 0.1) the
    # log_ndtr -> ndtri_exp round trip, off by a few ulps at a small
    # endpoint, computes -0.10000000000000002; the draw is then taken to
    # first order from that endpoint.
    for lo, hi, u in ((-1.0, 1.0, 0.0), (-1.0, 1.0, 1.0 - 2.0 ** -53),
                      (-0.1, 0.1, 1.0 - 2.0 ** -53), (-0.1, 0.1, 0.0)):
        assert lo < sample_truncated_normal(0.0, lo, hi, u) < hi


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
