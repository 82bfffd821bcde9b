"""Fisher information and Cramer-Rao efficient estimation of the scale
parameter sigma^2 in the model z_i = sigma n^(-beta) x_i + y_i."""

from ._quad import QuadratureError
from .estimator import (
    EstimateResult,
    InsufficientInformation,
    SplitPlan,
    estimate,
    make_split,
    oracle_estimate,
)
from .fisher import (
    FisherReport,
    RateScan,
    closed_form_constant_C,
    closed_form_constant_cH,
    fisher_closed_form,
    fisher_exact,
    fisher_integral,
    fisher_report,
    rate_scan,
    whitened_system,
)
from .linalg import (
    NotPositiveDefiniteError,
    WhitenedSystem,
    dct_basis,
    dct_nodes,
    diff_cov,
    whiten,
)
from .model import (
    AutocovarianceSpec,
    DomainError,
    ModelSpec,
    SlowlyVaryingSpec,
    fbm_wn_spec,
    gamma_fgn,
    gamma_integrated_fbm,
    integrated_fbm_spec,
    large_error_spec,
    user_spec,
    with_n,
)
from .montecarlo import McStudy, run_study, sample_z

__version__ = "0.1.0"
