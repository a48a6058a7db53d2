import pkgutil

import gmprod

PUBLIC_API = [
    "CIEstimate",
    "ChainSpec",
    "MomentVector",
    "OracleBudgetError",
    "PowerReport",
    "SeedSpec",
    "TestPlan",
    "WickBudget",
    "__version__",
    "base_gaussian_moments",
    "build_test",
    "chebyshev_error",
    "classify",
    "closed_form_moments",
    "draw_h_samples",
    "empirical_power",
    "h_samples",
    "layer_update",
    "mc_mean",
    "mc_variance",
    "mean_h_asymptotic",
    "mean_h_product_exact",
    "power_from_samples",
    "sample_product",
    "sample_single",
    "stream_rng",
    "tv_lower_bound_empirical",
    "tv_upper_bound",
    "var_h_product_exact",
    "wick_exact_mean_h",
    "wick_exact_var_h_single",
]


def test_public_api_is_pinned():
    # a name added to or dropped from the public API must be added or dropped here too
    assert sorted(gmprod.__all__) == PUBLIC_API
    assert all(hasattr(gmprod, name) for name in PUBLIC_API)


MODULES = ["cli", "core", "distinguisher", "engine", "moments", "oracle", "sampling"]


def test_module_list_is_pinned():
    # a module added to or dropped from the package must be added or dropped here too
    assert sorted(m.name for m in pkgutil.iter_modules(gmprod.__path__)) == MODULES
