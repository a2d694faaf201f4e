"""Exact machinery for n-fold integrated Brownian motion and its stationary transform.

Four layers:

    exact         arbitrary-precision rational matrix families and identities
    spectral      transfer functions, exact residue inner products, covariances
    densities     joint / conditional / marginal / transition densities, rounded once
    sampling      exact path samplers and Monte Carlo estimators
    verification  Monte Carlo check suites with 3-standard-error bands

plus a CLI (`ibrownian`, or `python -m ibrownian`).
"""

from .exact import (
    DimFreeMatrix,
    a_inverse_matrix,
    a_matrix,
    b_matrix,
    gamma_matrix,
    identity,
    lambda_matrix,
    mat_mul,
    matrix_from_json,
    matrix_to_json,
    rho_inverse_matrix,
    rho_matrix,
    star,
    transpose,
)
from .spectral import (
    CorrelationExpansion,
    RationalTransfer,
    cross_correlation,
    half_integer,
    impulse_response,
    sigma_sq,
    spectral_inner_product,
    transfer_g,
    transfer_h,
    transfer_h_hat,
)
from .densities import (
    TimeScaling,
    conditional_density,
    covariance_r,
    density_w,
    drift_matrix,
    log_conditional_density,
    log_density_w,
    log_stationary_density,
    log_transition_density,
    mean_mu,
    normalizing_k,
    r_inverse,
    star_vector,
    stationary_density,
    transition_density,
)
from .sampling import (
    MCEstimate,
    PathSample,
    closed_form_quadratic_laplace,
    covariance_root,
    mc_quadratic_laplace,
    mc_transition_symmetry,
    path_generator,
    sample_w,
    sample_w_paths,
    sample_x,
    sample_x_paths,
)
from . import verification

__version__ = "0.1.0"

__all__ = [
    "DimFreeMatrix",
    "a_inverse_matrix",
    "a_matrix",
    "b_matrix",
    "gamma_matrix",
    "identity",
    "lambda_matrix",
    "mat_mul",
    "matrix_from_json",
    "matrix_to_json",
    "rho_inverse_matrix",
    "rho_matrix",
    "star",
    "transpose",
    "CorrelationExpansion",
    "RationalTransfer",
    "cross_correlation",
    "half_integer",
    "impulse_response",
    "sigma_sq",
    "spectral_inner_product",
    "transfer_g",
    "transfer_h",
    "transfer_h_hat",
    "TimeScaling",
    "conditional_density",
    "covariance_r",
    "density_w",
    "drift_matrix",
    "log_conditional_density",
    "log_density_w",
    "log_stationary_density",
    "log_transition_density",
    "mean_mu",
    "normalizing_k",
    "r_inverse",
    "star_vector",
    "stationary_density",
    "transition_density",
    "MCEstimate",
    "PathSample",
    "closed_form_quadratic_laplace",
    "covariance_root",
    "mc_quadratic_laplace",
    "mc_transition_symmetry",
    "path_generator",
    "sample_w",
    "sample_w_paths",
    "sample_x",
    "sample_x_paths",
    "verification",
]
