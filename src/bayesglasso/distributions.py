"""Seeded random variate generation for the Gibbs samplers.

All randomness flows through :class:`RngStream`, a thin wrapper over
numpy's Philox counter-based bit generator keyed by ``(seed, stream_id)``.
Equal keys give bitwise-identical draw sequences; distinct stream ids give
statistically independent streams, which is how replications are seeded
when they run in parallel.
"""

import math

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp


class RngStream:
    """One deterministic random stream, owned by a single worker at a time."""

    __slots__ = ("seed", "stream_id", "gen")

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.gen = np.random.Generator(np.random.Philox(key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def michael_schucany_haas(mean, shape, nu, u):
    """IG(mean, shape) as a pure function of a standard normal nu and a
    uniform u on [0, 1) (Michael, Schucany & Haas 1976).

    Parameters are not checked; they must be positive.  The result is
    positive and finite for every finite positive mean and shape.
    """
    my = mean * nu * nu
    x = mean + mean * (my - np.sqrt(my * (4.0 * shape + my))) / (2.0 * shape)
    # The smaller root can round to <= 0 under extreme parameters.  Floor it
    # far below any achievable draw, high enough that both this branch and
    # the mean**2/x branch stay finite.
    mean2 = mean * mean
    x = np.fmax(x, 1e-300 * np.fmax(mean2, 1.0))
    return np.where(u * (mean + x) <= mean, x, mean2 / x)


# Beyond this many standard deviations the inverse-CDF route runs out of
# floating point resolution, so tail intervals switch to rejection.
_TAIL_Z = 4.0
_TAIL_REJECTION_TRIES = 64
# Draws landing outside (lo, hi) after rounding are retried this often.  A
# usable interval needs about one try; running out means the interval is
# too narrow for the draw to resolve, which raises instead of looping.
_TRUNCNORM_TRIES = 100


def sample_truncated_normal(mu, sigma, lo, hi, rng):
    """Draw from N(mu, sigma**2) conditioned on the open interval (lo, hi).

    lo may be -inf and hi may be +inf.  Central intervals use inverse-CDF
    sampling; intervals lying more than _TAIL_Z standard deviations into a
    tail use an exponential-proposal rejection sampler that stays exact
    arbitrarily far out.  The returned value is strictly inside (lo, hi);
    when exactly one float lies there it is returned without a draw.
    ValueError is raised when no float lies strictly inside the interval,
    or when _TRUNCNORM_TRIES draws in a row round to outside it.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if not lo < hi:
        raise ValueError("empty truncation interval")
    inside = math.nextafter(lo, hi)
    if not inside < hi:
        raise ValueError(f"no float lies strictly inside ({lo!r}, {hi!r})")
    if not math.nextafter(inside, hi) < hi:
        # Exactly one float inside: the only possible draw, and one the
        # inverse CDF cannot be relied on to land on.
        return inside
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    gen = rng.gen
    for _ in range(_TRUNCNORM_TRIES):
        x = mu + sigma * _standard_truncnorm(a, b, gen)
        if lo < x < hi:
            return x
    raise ValueError(
        f"no draw of N({mu!r}, {sigma!r}**2) landed strictly inside ({lo!r}, {hi!r}) "
        f"in {_TRUNCNORM_TRIES} tries")


def _standard_truncnorm(a, b, gen):
    # May return a value on or just outside [a, b] when rounding defeats
    # the inverse CDF; the caller rejects and retries.
    if b < -_TAIL_Z:
        return -_upper_tail(-b, -a, gen)
    if a > _TAIL_Z:
        return _upper_tail(a, b, gen)
    pa = float(ndtr(a))
    pb = float(ndtr(b))
    return float(ndtri(pa + (pb - pa) * gen.random()))


def _upper_tail(a, b, gen):
    # Robert (1995): translated exponential proposal on [a, inf) with the
    # acceptance-optimal rate, rejecting proposals past b.
    rate = 0.5 * (a + math.sqrt(a * a + 4.0))
    for _ in range(_TAIL_REJECTION_TRIES):
        z = a + gen.exponential(1.0 / rate)
        if z >= b:
            continue
        d = z - rate
        if gen.random() <= math.exp(-0.5 * d * d):
            return z
    # Extremely narrow far-tail interval: fall back to inverse-CDF on the
    # survival function in log space, which keeps full relative precision.
    la = float(log_ndtr(-a))
    lb = float(log_ndtr(-b)) if b != math.inf else -math.inf
    v = gen.random()
    log_u = la + math.log(v + (1.0 - v) * math.exp(lb - la)) if lb > -math.inf \
        else la + math.log(v)
    return -float(ndtri_exp(log_u))
