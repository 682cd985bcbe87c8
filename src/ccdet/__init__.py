"""Collaborative compressive detection with artificial-noise secrecy.

A network of nodes observes a common event through additive Gaussian noise,
compresses each observation with a shared random projection, and forwards the
compressed vectors to a fusion center that runs a likelihood-ratio test.
This package provides the detectors, their closed-form performance
characterizations, an artificial-noise injection layer that blinds an
eavesdropper who overhears a fraction of the nodes, design optimizers for the
injection parameters, and a Monte Carlo engine that validates the closed
forms under a strict reproducibility contract.
"""

from __future__ import annotations

from .analytics import (
    ChiSquareSpec,
    chi2_cdf,
    chi2_sf,
    deflection_clean,
    deflection_ev,
    deflection_fc,
    deflection_report,
    deflection_tilde_exact,
    deterministic_deflection,
    ncx2_cdf,
    ncx2_sf,
    nodes_required,
    pe_deterministic_approx,
    pe_deterministic_bounds,
    pe_deterministic_chernoff,
    pe_deterministic_exact,
    pe_random_approx,
    pe_random_chernoff,
    pe_random_exact,
    q_function,
    q_inverse,
    random_thresholds,
    test_stat_distribution,
)
from .detection import (
    GaussianMixture,
    build_mixtures,
    log_likelihood_ratios,
)
from .errors import (
    CcdetError,
    DimensionError,
    DomainError,
    InfeasibleError,
    PriorError,
    ProbabilityError,
    RankError,
    SingularCovarianceError,
    ZeroVectorError,
)
from .model import (
    InjectionPolicy,
    RngContract,
    Scenario,
    SignalModel,
    trial_stream,
    validate_scenario,
)
from .montecarlo import (
    MonteCarloResult,
    closed_form_columns,
    estimate_errors,
    estimate_errors_fresh_phi,
    sample_transformed_statistics,
    sweep,
    write_sweep_csv,
)
from .projection import (
    ProjectionOperator,
    check_stable_embedding,
    embedding_distortion,
    gen_projection,
    load_operator,
    operator_from_matrix,
    save_operator,
)
from .secrecy import (
    dfc_perfect,
    high_snr_check,
    monotonicity_scan,
    optimize_constrained,
    optimize_perfect,
    perfect_secrecy_kappa,
    write_solution,
)

__version__ = "0.1.0"

__all__ = [
    "CcdetError",
    "ChiSquareSpec",
    "DimensionError",
    "DomainError",
    "GaussianMixture",
    "InfeasibleError",
    "InjectionPolicy",
    "MonteCarloResult",
    "PriorError",
    "ProbabilityError",
    "ProjectionOperator",
    "RankError",
    "RngContract",
    "Scenario",
    "SignalModel",
    "SingularCovarianceError",
    "ZeroVectorError",
    "build_mixtures",
    "check_stable_embedding",
    "chi2_cdf",
    "chi2_sf",
    "closed_form_columns",
    "deflection_clean",
    "deflection_ev",
    "deflection_fc",
    "deflection_report",
    "deflection_tilde_exact",
    "deterministic_deflection",
    "dfc_perfect",
    "embedding_distortion",
    "estimate_errors",
    "estimate_errors_fresh_phi",
    "gen_projection",
    "high_snr_check",
    "load_operator",
    "log_likelihood_ratios",
    "monotonicity_scan",
    "ncx2_cdf",
    "ncx2_sf",
    "nodes_required",
    "operator_from_matrix",
    "optimize_constrained",
    "optimize_perfect",
    "pe_deterministic_approx",
    "pe_deterministic_bounds",
    "pe_deterministic_chernoff",
    "pe_deterministic_exact",
    "pe_random_approx",
    "pe_random_chernoff",
    "pe_random_exact",
    "perfect_secrecy_kappa",
    "q_function",
    "q_inverse",
    "random_thresholds",
    "sample_transformed_statistics",
    "save_operator",
    "sweep",
    "test_stat_distribution",
    "trial_stream",
    "validate_scenario",
    "write_solution",
    "write_sweep_csv",
]
