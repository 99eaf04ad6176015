"""Constrained estimation and specification testing in additive RKHS.

The package fits additive models under RKHS-norm budgets (closed-form
kernel ridge or a greedy conditional-gradient loop) and tests functional
restrictions (linearity, exclusion, additivity) against nonparametric
alternatives, with instruments projected to be orthogonal to the
infinite-dimensional nuisance components and critical values simulated
from a weighted chi-square limit.
"""

from .kernels import (
    CompositeKernel,
    ConstantKernel,
    GaussianRBF,
    IntegratedBrownianKernel,
    Kernel,
    LinearKernel,
    SeriesKernel,
    additive_kernel,
    gram_matrix,
    integrated_brownian_eval,
    kernel_from_config,
    polynomial_series,
    polynomial_weights,
)
from .losses import (
    LossSpec,
    absolute_loss,
    duration_loss,
    logistic_loss,
    loss_by_name,
    poisson_loss,
    rescaled_square_loss,
    square_loss,
)
from .estimators import (
    AdditiveModel,
    FitConfig,
    GreedyTrace,
    fit_constrained_ridge,
    fit_ridge,
    greedy_direction,
    greedy_direction_series,
    greedy_fit,
    line_search,
    solve_rho_for_budget,
)
from .inference import (
    HypothesisPlan,
    SectionInstrumentPlan,
    SeriesInstrumentPlan,
    TestResult,
    build_instruments,
    covariance_estimate,
    default_projection_rho,
    p_value,
    project_instruments,
    project_on_features,
    run_test,
    simulate_null,
    test_statistic,
)
from .simulation import (
    DgpSpec,
    McConfig,
    RejectionRow,
    RejectionTable,
    gen_covariates,
    gen_response,
    null_kernel_for,
    run_monte_carlo,
)

__version__ = "0.1.0"
