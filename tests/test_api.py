import gmprod

PUBLIC_API = [
    "CIEstimate",
    "ChainSpec",
    "Matrix",
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
    "mean_h_product",
    "mean_h_product_exact",
    "power_from_samples",
    "sample_product",
    "sample_single",
    "stat_h",
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
