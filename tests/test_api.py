import importlib
import pkgutil

import pytest

import gmprod

PUBLIC_API = [
    "ChainSpec",
    "MomentVector",
    "OracleBudgetError",
    "SeedSpec",
    "TestPlan",
    "WickBudget",
    "__version__",
    "build_test",
    "closed_form_moments",
    "draw_h_samples",
    "error_rates",
    "h_samples",
    "mean_h_asymptotic",
    "mean_h_product_exact",
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


# Names the package once exported: the ones that only the tests used live
# in tests/references.py; empirical_power and the threshold test's old
# pieces, now TestPlan.chebyshev_error_bound and error_rates, live nowhere.
REMOVED = ["CIEstimate", "PowerReport", "base_gaussian_moments", "chebyshev_error", "classify",
           "empirical_power", "layer_update", "mc_mean", "mc_variance", "power_from_samples"]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    modules = [gmprod, *(importlib.import_module(f"gmprod.{m}") for m in MODULES)]
    assert not any(hasattr(module, name) for module in modules)
