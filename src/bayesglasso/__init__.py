"""Block Gibbs samplers for the Bayesian adaptive graphical LASSO.

The package pairs the classic unconstrained block Gibbs sampler ("bgs")
with a hit-and-run variant ("hrs") that samples each precision-matrix
column inside the positive definite cone, plus the simulation harness,
loss metrics and structure scoring used to compare them.
"""

__version__ = "0.1.0"

from .designs import DESIGN_KINDS, GraphDesign, TrueModel, build_design, scatter_matrix, simulate_data, true_model
from .distributions import (
    RngStream,
    sample_gamma,
    sample_inverse_gaussian,
    sample_mvn,
    sample_truncated_normal,
    sample_unit_sphere,
)
from .matrixcore import (
    load_matrix_csv,
    pd_check,
    permute_to_last,
    quad_form,
    save_matrix_csv,
    spd_inverse,
    symmetrize,
)
from .metrics import (
    StructureScores,
    adjacency_from_estimate,
    frobenius_loss,
    scores_from_counts,
    stein_loss,
    structure_scores,
    unit_diag_scale,
)
from .sampler import (
    ChainConfig,
    ChainOutput,
    ColumnPartition,
    GibbsState,
    SAMPLER_KINDS,
    ViolationAudit,
    bgs_update_beta,
    compute_c_matrix,
    hit_and_run_interval,
    hrs_update_beta,
    initial_state,
    make_partition,
    run_chain,
    sweep,
    update_gamma,
    update_lambda_column,
    update_tau_column,
)

__all__ = [
    "DESIGN_KINDS",
    "SAMPLER_KINDS",
    "ChainConfig",
    "ChainOutput",
    "ColumnPartition",
    "GibbsState",
    "GraphDesign",
    "RngStream",
    "StructureScores",
    "TrueModel",
    "ViolationAudit",
    "adjacency_from_estimate",
    "bgs_update_beta",
    "build_design",
    "compute_c_matrix",
    "frobenius_loss",
    "hit_and_run_interval",
    "hrs_update_beta",
    "initial_state",
    "load_matrix_csv",
    "make_partition",
    "pd_check",
    "permute_to_last",
    "quad_form",
    "run_chain",
    "sample_gamma",
    "sample_inverse_gaussian",
    "sample_mvn",
    "sample_truncated_normal",
    "sample_unit_sphere",
    "save_matrix_csv",
    "scatter_matrix",
    "scores_from_counts",
    "simulate_data",
    "spd_inverse",
    "stein_loss",
    "structure_scores",
    "sweep",
    "symmetrize",
    "true_model",
    "unit_diag_scale",
    "update_gamma",
    "update_lambda_column",
    "update_tau_column",
]
