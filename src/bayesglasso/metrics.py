"""Loss functions and graphical-structure scoring against the truth."""

import math
from dataclasses import dataclass

import numpy as np

from .matrixcore import check_positive, invert_from_factor, pd_check


@dataclass
class StructureScores:
    tp: int
    tn: int
    fp: int
    fn: int
    specificity: float  # percent; nan when TN+FP == 0
    sensitivity: float  # percent; nan when TP+FN == 0
    mcc: float          # percent; 0 when any denominator factor is 0


def stein_loss(omega_hat, omega_true):
    """Entropy loss tr(W S) - log det(W S) - p with S the true covariance.

    Zero iff the estimate equals the truth, strictly positive otherwise.
    """
    omega_hat = np.asarray(omega_hat, dtype=float)
    omega_true = np.asarray(omega_true, dtype=float)
    if omega_hat.shape != omega_true.shape:
        raise ValueError("dimension mismatch")
    Lh = pd_check(omega_hat)
    Lt = pd_check(omega_true)
    if Lh is None or Lt is None:
        raise ValueError("matrix not positive definite")
    sigma = invert_from_factor(Lt)
    trace = float(np.sum(omega_hat * sigma))
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(Lh)))
                         - np.sum(np.log(np.diagonal(Lt))))
    return trace - logdet - omega_hat.shape[0]


def frobenius_loss(omega_hat, omega_true):
    """Elementwise Frobenius norm of the difference."""
    omega_hat = np.asarray(omega_hat, dtype=float)
    omega_true = np.asarray(omega_true, dtype=float)
    if omega_hat.shape != omega_true.shape:
        raise ValueError("dimension mismatch")
    return float(np.sqrt(np.sum((omega_hat - omega_true) ** 2)))


def adjacency_from_estimate(omega_hat, threshold):
    """Edges where |estimate| meets the threshold (>=), diagonal excluded.

    threshold has no default here: the CLI's is ``ScenarioConfig.threshold``.
    """
    check_positive("threshold", threshold)
    adj = np.abs(omega_hat) >= threshold
    np.fill_diagonal(adj, False)
    return adj


def scores_from_counts(tp, tn, fp, fn, mcc_as_printed=False):
    """Specificity, sensitivity and MCC (all in percent) from pooled counts.

    mcc_as_printed swaps the standard MCC denominator factor (TN+FP) for a
    repeated (TN+FN), matching a published misprint, for comparison runs.
    """
    specificity = 100.0 * tn / (tn + fp) if tn + fp > 0 else math.nan
    sensitivity = 100.0 * tp / (tp + fn) if tp + fn > 0 else math.nan
    if mcc_as_printed:
        factors = (tp + fp, tp + fn, tn + fn, tn + fn)
    else:
        factors = (tp + fp, tp + fn, tn + fp, tn + fn)
    if any(f == 0 for f in factors):
        mcc = 0.0
    else:
        mcc = 100.0 * (tp * tn - fp * fn) / math.sqrt(math.prod(factors))
    return StructureScores(tp=tp, tn=tn, fp=fp, fn=fn,
                           specificity=specificity, sensitivity=sensitivity,
                           mcc=mcc)


def structure_scores(adj_hat, adj_true):
    """Confusion counts over unordered off-diagonal pairs, plus criteria."""
    adj_hat = np.asarray(adj_hat, dtype=bool)
    adj_true = np.asarray(adj_true, dtype=bool)
    if adj_hat.shape != adj_true.shape:
        raise ValueError("dimension mismatch")
    iu = np.triu_indices(adj_hat.shape[0], k=1)
    h = adj_hat[iu]
    t = adj_true[iu]
    tp = int(np.sum(h & t))
    tn = int(np.sum(~h & ~t))
    fp = int(np.sum(h & ~t))
    fn = int(np.sum(~h & t))
    return scores_from_counts(tp, tn, fp, fn)


def unit_diag_scale(omega):
    """Rescale to unit diagonal: D^{-1/2} omega D^{-1/2}, D = diag(omega)."""
    omega = np.asarray(omega, dtype=float)
    d = np.diagonal(omega)
    if not np.all((d > 0.0) & (d < math.inf)):  # NaN fails both
        raise ValueError("diagonal entries must be finite and positive")
    inv_sqrt = 1.0 / np.sqrt(d)
    out = omega * np.outer(inv_sqrt, inv_sqrt)
    np.fill_diagonal(out, 1.0)
    return out
