"""Barut-Girardello coherent states for u(N,1) at general real label K > 0:
special functions, truncated Fock representations, the radial Bessel
measure with its exact sampler and factorized quadrature, and spectral /
kernel / time-sliced traces for Hamiltonians linear in the diagonal
generators.
"""

from .coherent import coefficient, eigen_residual, f_series, inner_product, state_vector
from .fock import (
    TruncatedRepSpace,
    commutator_residual,
    generator_matrix,
    rep_space,
    subsidiary_residual,
)
from .measure import (
    MeasureModel,
    density,
    moment_check,
    radial_cdf,
    resolution_check,
    sample,
    sampler_report,
    verify_formula_a,
    verify_formula_b,
)
from .pathint import (
    HamiltonianParams,
    TraceConfig,
    diagonal_kernel,
    exact_kernel_trace,
    exact_spectral_trace,
    h_matrix_element,
    sliced_trace,
)
from .specfun import ConvergenceError, bessel_i, bessel_k, gamma, log_gamma

__version__ = "0.1.0"
