"""True-model graph structures for the simulation study.

Six designs: two specified through the covariance (ar1, block) and four
through the precision matrix (ar2, star, circle, full).  Each design states
one matrix; the other is its inverse, and both are returned along with the
true adjacency used for structure scoring.  That graph is analytic for the
covariance-specified designs and is the off-diagonal nonzero pattern of
the precision matrix for the other four.

GraphDesign rejects every size a design cannot build: ar2 and circle need
p >= 3, block an even p, and star p <= 100, because star's precision
matrix has eigenvalues 1 +- 0.1 sqrt(p - 1) and is singular from p = 101.
"""

from dataclasses import dataclass

import numpy as np

from .matrixcore import check_integer, pd_check, spd_inverse

DESIGN_KINDS = ("ar1", "ar2", "block", "star", "circle", "full")


@dataclass(frozen=True)
class GraphDesign:
    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise ValueError(f"design must be one of {DESIGN_KINDS}, got {self.kind!r}")
        check_integer("p", self.p, 2)
        if self.kind in ("ar2", "circle") and self.p < 3:
            raise ValueError(f"{self.kind} needs p >= 3")
        if self.kind == "block" and self.p % 2 != 0:
            raise ValueError("block needs an even p")
        if self.kind == "star" and self.p > 100:
            raise ValueError(f"star needs p <= 100, got {self.p}")


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
        # The inverse of an AR(1) covariance is tridiagonal in exact
        # arithmetic, so the adjacency is analytic.
        adjacency = dist == 1
    elif design.kind == "block":
        half = p // 2
        same_block = np.equal.outer(np.arange(p) < half, np.arange(p) < half)
        # Block-diagonal covariance inverts block by block and the inverse
        # of each compound-symmetry block is dense, so adjacency is the
        # within-block pattern.
        adjacency = same_block & (dist > 0)
        sigma = np.eye(p) + 0.5 * adjacency
    elif design.kind == "ar2":
        omega = np.where(dist == 0, 1.0, 0.0) \
            + np.where(dist == 1, 0.5, 0.0) + np.where(dist == 2, 0.25, 0.0)
    elif design.kind == "star":
        omega = np.eye(p)
        omega[0, 1:] = 0.1
        omega[1:, 0] = 0.1
    elif design.kind == "circle":
        omega = 2.0 * np.eye(p) + np.where(dist == 1, 1.0, 0.0)
        omega[0, p - 1] = omega[p - 1, 0] = 0.9
    else:  # full
        omega = np.ones((p, p)) + np.eye(p)

    if design.kind in ("ar1", "block"):
        return TrueModel(spd_inverse(sigma), sigma, adjacency)
    return TrueModel(omega, spd_inverse(omega), (omega != 0) & (dist > 0))


def simulate_data(model, n, rng):
    """n i.i.d. rows from N(0, sigma_true)."""
    check_integer("n", n, 1)
    L = pd_check(model.sigma_true, "true covariance")
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
