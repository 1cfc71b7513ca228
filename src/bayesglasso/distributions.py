"""Seeded random variate generation for the Gibbs samplers.

All randomness flows through :class:`RngStream`, a thin wrapper over
numpy's Philox counter-based bit generator keyed by ``(seed, stream_id)``.
Equal keys give bitwise-identical draw sequences; distinct stream ids give
statistically independent streams, which is how replications are seeded
when they run in parallel.
"""

import math

import numpy as np
from scipy.special import log_ndtr, ndtri_exp


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


def sample_truncated_normal(mu, sigma, lo, hi, u):
    """N(mu, sigma**2) conditioned on the open interval (lo, hi), as a pure
    function of one uniform u on [0, 1).

    lo may be -inf and hi may be +inf.  The draw is the exact inverse CDF,
    taken on the upper-tail probability Q in log space so that it keeps
    full relative precision arbitrarily far into either tail: with a and b
    the standardized endpoints,

        log Q(z) = log Q(a) + log1p(t * expm1(log Q(b) - log Q(a)))

    where t is u mapped affinely onto [2**-50, 1 - 2**-50], so z = ppf(t,
    a, b) of the truncated standard normal.  An interval with a + b < 0 is
    mirrored first, so that log Q(a) never rounds to 0; there the draw is
    ppf(1 - t, a, b).  When exactly one float lies strictly inside (lo, hi)
    it is returned whatever u is.  ValueError is raised when no float lies
    strictly inside the interval, and when the draw rounds onto or outside
    an endpoint, which an interval a few ulps wide can make it do.
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
    mirrored = a + b < 0.0
    if mirrored:
        a, b = -b, -a
    # t keeps 2**-50, eight steps of the 2**-53 grid that uniforms come on,
    # away from 0 and 1.  u + 2**-54 would round the largest uniform up to
    # 1.0, and the log-space inverse CDF resolves a quantile level only to a
    # few grid steps next to an endpoint such as those of (-1, 1).
    t = 2.0 ** -50 + u * (1.0 - 2.0 ** -49)
    la = float(log_ndtr(-a))
    lb = float(log_ndtr(-b))
    z = float(ndtri_exp(la + math.log1p(t * math.expm1(lb - la))))
    x = mu + sigma * z if mirrored else mu - sigma * z
    if not lo < x < hi:
        raise ValueError(
            f"draw {x!r} of N({mu!r}, {sigma!r}**2) rounded outside ({lo!r}, {hi!r})")
    return x
