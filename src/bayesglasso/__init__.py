"""Block Gibbs samplers for the Bayesian adaptive graphical LASSO.

The package pairs the classic unconstrained block Gibbs sampler ("bgs")
with a hit-and-run variant ("hrs") that samples each precision-matrix
column inside the positive definite cone, plus the simulation harness,
loss metrics and structure scoring used to compare them.
"""

__version__ = "0.1.0"

from .designs import DESIGN_KINDS, GraphDesign, TrueModel, build_design, scatter_matrix, simulate_data, true_model
from .distributions import RngStream
from .matrixcore import save_matrix_csv
from .metrics import (
    StructureScores,
    adjacency_from_estimate,
    frobenius_loss,
    scores_from_counts,
    stein_loss,
    structure_scores,
    unit_diag_scale,
)
from .sampler import SAMPLER_KINDS, ChainConfig, ChainOutput, ViolationAudit, run_chain

__all__ = [
    "DESIGN_KINDS",
    "SAMPLER_KINDS",
    "ChainConfig",
    "ChainOutput",
    "GraphDesign",
    "RngStream",
    "StructureScores",
    "TrueModel",
    "ViolationAudit",
    "adjacency_from_estimate",
    "build_design",
    "frobenius_loss",
    "run_chain",
    "save_matrix_csv",
    "scatter_matrix",
    "scores_from_counts",
    "simulate_data",
    "stein_loss",
    "structure_scores",
    "true_model",
    "unit_diag_scale",
]
