"""Seeded random variate generation for the Gibbs samplers.

All randomness flows through :class:`RngStream`, a numpy ``Generator`` on
the Philox counter-based bit generator keyed by ``(seed, stream_id)``.
Equal keys give bitwise-identical draw sequences; distinct stream ids give
statistically independent streams, which is how replications are seeded
when they run in parallel.

The truncated normal's ``log_ndtr`` and ``ndtri_exp`` come from
``scipy.special``, which only hrs uses.  It takes 0.2-0.3 s to import
once the package is loaded, since it too loads ``scipy._lib._array_api``
and with it ``numpy.f2py`` (see the matrixcore module docstring), so
:func:`normal_tail_ufuncs` imports it on first need.  Its compiled
``_ufuncs`` cannot be loaded the way :mod:`bayesglasso.matrixcore` loads
the BLAS modules: the module's init imports ``scipy.special`` itself.  On
a 2-vCPU x86-64 guest, a function that returns the cached helper's result
takes about 0.06 us, one that returns a module global 0.03 us and one that
runs the import statement 0.41 us, so the draw calls the helper.
"""

import functools
import math

import numpy as np

from .matrixcore import check_integer


class RngStream(np.random.Generator):
    """One deterministic random stream, owned by a single worker at a time."""

    def __init__(self, seed, stream_id=0):
        # int() would run a float or bool key as the integer it truncates to.
        check_integer("seed", seed, 0)
        check_integer("stream_id", stream_id, 0)
        key = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
        super().__init__(np.random.Philox(key))


@functools.cache
def normal_tail_ufuncs():
    """scipy.special's ``log_ndtr`` and ``ndtri_exp``, imported on the
    first call and then returned from the cache."""
    from scipy.special import log_ndtr, ndtri_exp
    return log_ndtr, ndtri_exp


def sample_truncated_normal(mu, lo, hi, u):
    """N(mu, 1) conditioned on the open interval (lo, hi), as a pure
    function of one uniform u on [0, 1).

    lo may be -inf and hi may be +inf.  The draw is the exact inverse CDF,
    taken on the upper-tail probability Q in log space so that it keeps
    full relative precision arbitrarily far into either tail: with
    a = lo - mu and b = hi - mu,

        log Q(z) = log Q(a) + log1p(t * expm1(log Q(b) - log Q(a)))

    where t is u mapped affinely onto [2**-50, 1 - 2**-50], so z = ppf(t,
    a, b) of the truncated standard normal.  An interval with a + b < 0 is
    mirrored first, so that log Q(a) never rounds to 0; there the draw is
    ppf(1 - t, a, b).

    When u is within about 2**-45 of 0 or 1 the draw lies at most about
    2**-45 * mass / density from an endpoint, which can be less than the
    few-ulp error of the log_ndtr / ndtri_exp round trip, so the computed
    draw can land on or past that endpoint.  It is then taken once more to
    first order from that endpoint: moved inward by its mass share from
    the endpoint (t or 1 - t, swapped on a mirrored interval) times
    Q(a) - Q(b) = -expm1(log Q(b) - log Q(a)) * Q(a), over the unit normal
    density there.  ValueError is raised only when that draw too lies on or
    outside an endpoint, so on every interval with no float strictly
    inside it, an empty one included; the one caller, the hrs step, passes
    an interval that brackets 0.
    """
    a = lo - mu
    b = hi - mu
    mirrored = a + b < 0.0
    if mirrored:
        a, b = -b, -a
    # t keeps 2**-50, eight steps of the 2**-53 grid that uniforms come on,
    # away from 0 and 1.  u + 2**-54 would round the largest uniform up to
    # 1.0, and the log-space inverse CDF resolves a quantile level only to a
    # few grid steps next to an endpoint such as those of (-1, 1).
    t = 2.0 ** -50 + u * (1.0 - 2.0 ** -49)
    log_ndtr, ndtri_exp = normal_tail_ufuncs()
    la = float(log_ndtr(-a))
    lb = float(log_ndtr(-b))
    z = float(ndtri_exp(la + math.log1p(t * math.expm1(lb - la))))
    x = mu + z if mirrored else mu - z
    if not lo < x < hi:
        near_lo = x <= lo
        end = lo if near_lo else hi
        share = t if near_lo != mirrored else 1.0 - t
        # Q(a) over the density at the endpoint, in log space, where
        # neither underflows far in a tail.
        step = (share * -math.expm1(lb - la)
                * math.exp(la + 0.5 * (end - mu) ** 2 + 0.5 * math.log(2.0 * math.pi)))
        x = end + step if near_lo else end - step
    if not lo < x < hi:
        raise ValueError(
            f"draw {x!r} of N({mu!r}, 1) rounded outside ({lo!r}, {hi!r})")
    return x
