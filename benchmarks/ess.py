"""Effective sample size by Geyer's initial positive sequence estimator."""

import numpy as np


def geyer_ess(x):
    """ESS of a 1-D chain by Geyer's (1992) initial positive sequence.

    The autocovariances use the 1/n normalisation, which keeps the pair
    sums Gamma_m = gamma_{2m} + gamma_{2m+1} consistent.  Pairs are summed
    up to (not including) the first non-positive one, and
    ESS = n * gamma_0 / (2 * sum(Gamma) - gamma_0).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if x.ndim != 1 or n < 4:
        raise ValueError("need a 1-D chain of at least 4 draws")
    d = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(d, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n] / n
    if not acov[0] > 0.0:
        raise ValueError("chain is constant; its ESS is undefined")
    m = n // 2
    pairs = acov[: 2 * m : 2] + acov[1 : 2 * m : 2]
    stop = np.flatnonzero(pairs <= 0.0)
    total = pairs[: stop[0] if stop.size else m].sum()
    return n * acov[0] / (2.0 * total - acov[0])


def diagonal_ess(draws):
    """Mean Geyer ESS over the diagonal entries of a list of p x p draws."""
    diag = np.array([np.diagonal(d) for d in draws])
    return float(np.mean([geyer_ess(diag[:, j]) for j in range(diag.shape[1])]))
