"""Calculus and Monte Carlo for infinitely divisible laws under
random-integral mappings."""

from .core import (
    IdMeasure,
    LevyTriplet,
    RadialAtom,
    RadialComponent,
    SpectralCheck,
    SpectralMeasure,
    batched_exponent,
    callable_segment,
    char_exponent,
    conv_power,
    convolve,
    default_grid,
    exp_segment,
    log_moment,
    power_segment,
    validate_spectral,
)
from .errors import DomainError, IdcalcError, QuadratureError, ValidationError
from .factorization import factor_rho, verify_cor1b, verify_corollary5, verify_lemma1e, verify_prop1
from .families import dirac, gamma, gaussian, load_measure, measure_from_spec, poisson
from .levyarea import AreaParams, area_measure, nu_exponent, sinh_factor_exponent, verify_levy_area
from .mappings import (
    corollary1a_kernel,
    i_map,
    i_of_j_beta,
    j_beta,
    j_beta_inverse,
    radial_map,
    sigma_clock,
    smear_spectral,
    smear_triplet,
)
from .reports import VerificationReport, grid_check, validate_report
from .simulate import (
    CfTestResult,
    EcfEstimate,
    KernelIntegralSpec,
    PathConfig,
    cf_distance_test,
    clocked_integral_spec,
    cor1a_integral_spec,
    ecf,
    imap_integral_spec,
    jbeta_integral_spec,
    sample_integral,
)
from .verify import IDENTITIES, default_seed_measures, run_all, verify_identity

__version__ = "0.1.0"
