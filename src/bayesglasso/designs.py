"""True-model graph structures for the simulation study.

Six designs: two specified through the covariance (ar1, block) and four
through the precision matrix (ar2, star, circle, full).  Whichever side is
specified, the other is obtained by inversion and both are returned along
with the true adjacency used for structure scoring.
"""

from dataclasses import dataclass

import numpy as np

from .matrixcore import pd_check, spd_inverse

DESIGN_KINDS = ("ar1", "ar2", "block", "star", "circle", "full")


@dataclass(frozen=True)
class GraphDesign:
    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise ValueError(f"design must be one of {DESIGN_KINDS}, got {self.kind!r}")
        # bool subclasses int, but True is no number of variables.
        if isinstance(self.p, bool) or not isinstance(self.p, (int, np.integer)):
            raise ValueError(f"p must be an integer, got {self.p!r}")
        if self.kind in ("ar2", "circle") and self.p < 3:
            raise ValueError(f"{self.kind} needs p >= 3")
        if self.kind == "block" and (self.p < 2 or self.p % 2 != 0):
            raise ValueError("block needs an even p >= 2")
        if self.p < 2:
            raise ValueError("need p >= 2")


@dataclass
class TrueModel:
    omega_true: np.ndarray
    sigma_true: np.ndarray
    adjacency_true: np.ndarray


def build_design(design):
    """Construct the true precision/covariance pair and adjacency."""
    p = design.p
    dist = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))

    if design.kind == "ar1":
        sigma = 0.7 ** dist
        omega = spd_inverse(sigma)
        # The inverse of an AR(1) covariance is tridiagonal in exact
        # arithmetic, so the adjacency is analytic.
        adjacency = dist == 1
    elif design.kind == "ar2":
        omega = np.where(dist == 0, 1.0, 0.0) \
            + np.where(dist == 1, 0.5, 0.0) + np.where(dist == 2, 0.25, 0.0)
        sigma = spd_inverse(omega)
        adjacency = (dist == 1) | (dist == 2)
    elif design.kind == "block":
        half = p // 2
        same_block = np.equal.outer(np.arange(p) < half, np.arange(p) < half)
        off = same_block & (dist > 0)
        sigma = np.eye(p) + 0.5 * off
        omega = spd_inverse(sigma)
        # Block-diagonal covariance inverts block by block and the inverse
        # of each compound-symmetry block is dense, so adjacency is the
        # within-block pattern.
        adjacency = off
    elif design.kind == "star":
        omega = np.eye(p)
        omega[0, 1:] = 0.1
        omega[1:, 0] = 0.1
        sigma = spd_inverse(omega)
        adjacency = np.zeros((p, p), dtype=bool)
        adjacency[0, 1:] = True
        adjacency[1:, 0] = True
    elif design.kind == "circle":
        omega = 2.0 * np.eye(p) + np.where(dist == 1, 1.0, 0.0)
        omega[0, p - 1] = omega[p - 1, 0] = 0.9
        sigma = spd_inverse(omega)
        adjacency = (dist == 1) | (dist == p - 1)
    else:  # full
        omega = np.ones((p, p)) + np.eye(p)
        sigma = spd_inverse(omega)
        adjacency = dist > 0

    # omega is positive definite: spd_inverse has just tested it (ar2, star,
    # circle, full) or returned it as the inverse of a covariance it
    # accepted (ar1, block).
    np.fill_diagonal(adjacency, False)
    return TrueModel(omega_true=omega, sigma_true=sigma, adjacency_true=adjacency)


def simulate_data(model, n, rng):
    """n i.i.d. rows from N(0, sigma_true)."""
    if n < 1:
        raise ValueError("sample size must be positive")
    L = pd_check(model.sigma_true)
    if L is None:
        raise ValueError("true covariance not positive definite")
    p = model.sigma_true.shape[0]
    return rng.standard_normal((n, p)) @ L.T


def scatter_matrix(Y):
    """S = Y'Y, returned exactly symmetric."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] < 1:
        raise ValueError(f"need an n x p data matrix, got shape {Y.shape}")
    S = Y.T @ Y
    return (S + S.T) / 2.0


def true_model(kind, p):
    """Convenience wrapper: build_design(GraphDesign(kind, p))."""
    return build_design(GraphDesign(kind=kind, p=p))
