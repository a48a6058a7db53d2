import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gmprod

PUBLIC_API = [
    "ChainSpec",
    "MomentVector",
    "OracleBudgetError",
    "SeedSpec",
    "TestPlan",
    "__version__",
    "build_test",
    "closed_form_moments",
    "draw_h_samples",
    "error_rates",
    "h_samples",
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


MODULES = ["cli", "core", "distinguisher", "moments", "oracle", "sampling"]


def test_module_list_is_pinned():
    # a module added to or dropped from the package must be added or dropped here too
    assert sorted(m.name for m in pkgutil.iter_modules(gmprod.__path__)) == MODULES


# Names the package once exported: the ones that only the tests used live
# in tests/references.py; empirical_power and the threshold test's old
# pieces, now TestPlan.chebyshev_error_bound and error_rates, live nowhere;
# WickBudget is the fixed cap oracle.MAX_MONOMIALS; mean_h_asymptotic, a
# large-d approximation, gave way to the exact mean_h_product_exact.
REMOVED = ["CIEstimate", "PowerReport", "WickBudget", "base_gaussian_moments", "chebyshev_error",
           "classify", "empirical_power", "layer_update", "mc_mean", "mc_variance",
           "mean_h_asymptotic", "power_from_samples"]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    modules = [gmprod, *(importlib.import_module(f"gmprod.{m}") for m in MODULES)]
    assert not any(hasattr(module, name) for module in modules)


# Imports numpy, then runs one op of each subcommand and prints the
# top-level modules that the ops imported.
_OPS_PROBE = """
import contextlib, io, json, sys
import numpy
before = {name.partition(".")[0] for name in sys.modules}
from gmprod.cli import main
argvs = [
    ["moments", "--p", "2", "--q", "2", "--inner", "4"],
    ["distinguish", "--p", "2", "--q", "2", "--inner", "4", "--trials", "10"],
    ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", "16", "--steps", "2", "--trials", "10"],
    ["oracle", "--p", "2", "--q", "2", "--inner", "2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in argvs]
new = {name.partition(".")[0] for name in sys.modules} - before
print(json.dumps({"codes": codes, "new": sorted(new)}))
"""


def test_numpy_is_the_only_runtime_dependency():
    done = subprocess.run(
        [sys.executable, "-c", _OPS_PROBE], capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(gmprod.__file__).parents[1])},
    )
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    assert "gmprod" in result["new"]
    # numpy's compiled modules register Cython's runtime under these names
    foreign = [
        name for name in result["new"]
        if name not in sys.stdlib_module_names and name not in {"numpy", "gmprod", "cython_runtime"}
        and not name.startswith("_cython_")
    ]
    assert foreign == []
