"""Gaussian matrix product ensembles: sampling, exact moments, distinguishing tests.

Each public name is read from its submodule when it is accessed, which
imports that submodule the first time; ``import gmprod`` alone imports no
submodule and no numpy. ``core``, ``moments`` and ``oracle`` are exact
arithmetic in pure Python; ``sampling`` and ``distinguisher`` import numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {
    "ChainSpec": "core",
    "SeedSpec": "sampling",
    "stream_rng": "sampling",
    "sample_single": "sampling",
    "sample_product": "sampling",
    "h_samples": "sampling",
    "MomentVector": "moments",
    "closed_form_moments": "moments",
    "mean_h_product_exact": "moments",
    "var_h_product_exact": "moments",
    "OracleBudgetError": "oracle",
    "wick_exact_mean_h": "oracle",
    "wick_exact_var_h_single": "oracle",
    "TestPlan": "distinguisher",
    "build_test": "distinguisher",
    "error_rates": "distinguisher",
    "draw_h_samples": "distinguisher",
    "tv_lower_bound_empirical": "distinguisher",
    "tv_upper_bound": "distinguisher",
}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    # read from the submodule on every access, so gmprod.X is always gmprod.<submodule>.X
    if name in _SUBMODULE:
        return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    if name in _SUBMODULE.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
