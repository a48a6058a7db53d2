"""Gaussian matrix product ensembles: sampling, exact moments, distinguishing tests."""

from .core import ChainSpec
from .distinguisher import (
    PowerReport,
    TestPlan,
    build_test,
    chebyshev_error,
    classify,
    draw_h_samples,
    empirical_power,
    power_from_samples,
    tv_lower_bound_empirical,
    tv_upper_bound,
)
from .engine import h_samples
from .moments import (
    MomentVector,
    base_gaussian_moments,
    closed_form_moments,
    layer_update,
    mean_h_asymptotic,
    mean_h_product_exact,
    var_h_product_exact,
)
from .oracle import (
    CIEstimate,
    OracleBudgetError,
    WickBudget,
    mc_mean,
    mc_variance,
    wick_exact_mean_h,
    wick_exact_var_h_single,
)
from .sampling import SeedSpec, sample_product, sample_single, stream_rng

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "SeedSpec",
    "stream_rng",
    "sample_single",
    "sample_product",
    "h_samples",
    "MomentVector",
    "base_gaussian_moments",
    "layer_update",
    "closed_form_moments",
    "mean_h_product_exact",
    "mean_h_asymptotic",
    "var_h_product_exact",
    "WickBudget",
    "CIEstimate",
    "OracleBudgetError",
    "wick_exact_mean_h",
    "wick_exact_var_h_single",
    "mc_mean",
    "mc_variance",
    "TestPlan",
    "PowerReport",
    "build_test",
    "classify",
    "chebyshev_error",
    "empirical_power",
    "power_from_samples",
    "draw_h_samples",
    "tv_lower_bound_empirical",
    "tv_upper_bound",
    "__version__",
]
