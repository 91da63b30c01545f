"""Tunable-loss binary classification toolkit.

A numpy/scipy library for the alpha-parameterized loss family in the
logistic model: loss evaluation and calculus, conditional-entropy risk
identities, analytic gradients and Hessians with closed-form convexity
and Lipschitz constants, pointwise quasi-convexity certificates with
normalized gradient descent, uniform generalization bounds, and a seeded
Gaussian-mixture robustness/sensitivity experiment harness.
"""

__version__ = "0.6.0"

from .losses import (
    alpha_loss,
    as_pmf,
    canon_alpha,
    correspondence_gap,
    inverse_sigmoid,
    loss_sup_bound,
    margin_alpha_loss,
    margin_lipschitz_constant,
    margin_loss_derivative,
    margin_loss_second_derivative,
    sigmoid,
)
from .info import (
    arimoto_conditional_entropy,
    binary_entropy,
    brute_force_minimal_risk,
    min_conditional_risk,
    minimal_alpha_risk,
    optimal_classifier,
    tilt_posterior,
)
from .datasets import (
    CorruptionSpec,
    GmmSpec,
    LabeledDataset,
    bayes_direction,
    bayes_risk,
    corrupt,
    gaussian_linear_error,
    normalize_features,
    sample_balanced_gmm,
    sample_gmm,
)
from .logistic import (
    ParamVector,
    alpha_lipschitz_gradient,
    alpha_lipschitz_risk,
    empirical_alpha_risk,
    hessian_min_eigenvalue,
    risk_gradient,
    risk_hessian,
    small_radius_admissible_alpha,
    small_radius_modulus,
    soft_classifier,
    strong_convexity_modulus,
    theta_lipschitz_constant,
)
from .slqc import (
    NgdConfig,
    OracleFunction,
    RangeExceeded,
    SlqcCertificate,
    Verdict,
    audit_certificate,
    bootstrap_sequences,
    bootstrap_slqc,
    check_slqc_at,
    check_slqc_points,
    evolve_slqc,
    ngd,
    ngd_iteration_bound,
    risk_oracle,
    sample_audit_points,
)
from .training import (
    ConvergenceReport,
    ExperimentSummary,
    TrainConfig,
    angle_between,
    landscape_grid,
    lattice_strict_local_minima,
    relative_accuracy_gain,
    run_synthetic_experiment,
    saturation_report,
    single_basin,
    train_gd,
)
from .bounds import (
    BoundQuery,
    audit_generalizations,
    audit_uniform_discrepancy,
    optimality_trend,
    rademacher_bound,
    uniform_discrepancy_bound,
)
