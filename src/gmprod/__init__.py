"""Gaussian matrix product ensembles: sampling, exact moments, distinguishing tests."""

from .core import ChainSpec
from .distinguisher import (
    TestPlan,
    build_test,
    draw_h_samples,
    error_rates,
    tv_lower_bound_empirical,
    tv_upper_bound,
)
from .moments import (
    MomentVector,
    closed_form_moments,
    mean_h_product_exact,
    var_h_product_exact,
)
from .oracle import (
    OracleBudgetError,
    wick_exact_mean_h,
    wick_exact_var_h_single,
)
from .sampling import SeedSpec, h_samples, sample_product, sample_single, stream_rng

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "SeedSpec",
    "stream_rng",
    "sample_single",
    "sample_product",
    "h_samples",
    "MomentVector",
    "closed_form_moments",
    "mean_h_product_exact",
    "var_h_product_exact",
    "OracleBudgetError",
    "wick_exact_mean_h",
    "wick_exact_var_h_single",
    "TestPlan",
    "build_test",
    "error_rates",
    "draw_h_samples",
    "tv_lower_bound_empirical",
    "tv_upper_bound",
    "__version__",
]
