"""Threshold test on the statistic, plus analytic and empirical TV bounds.

The test thresholds the Schatten-4 statistic at the midpoint of the two
analytic means: the midpoint makes the Chebyshev misclassification bound
symmetric between the hypotheses. Total-variation distance is bracketed
from above by the chain bound and from below by the two-sample
Kolmogorov-Smirnov statistic of the observed statistic values, which is a
consistent estimator of a TV lower bound because pushing both laws through
the statistic can only shrink their distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChainSpec
from .moments import as_float, mean_h_product_exact, var_h_product_exact
from .engine import h_samples
from .sampling import SeedSpec, sample_product, sample_single

# The TV upper bound's multiplier, fixed at 1 as the sweep column name
# tv_upper_c1 says; every CLI report echoes it under the key "constants".
TV_UPPER_C = 1.0


@dataclass(frozen=True)
class TestPlan:
    """Precomputed quantities for classifying one statistic value."""

    __test__ = False  # not a pytest class, despite the name

    spec: ChainSpec
    mu_single: float
    mu_product: float
    threshold: float
    var_single: float
    var_product: float


@dataclass(frozen=True)
class PowerReport:
    n_trials: int
    accuracy: float
    false_positive_rate: float
    false_negative_rate: float
    chebyshev_error_bound: float


def build_test(spec: ChainSpec) -> TestPlan:
    """Test plan for a chain: exact means, midpoint threshold, exact variances.

    The single ensemble is the one-factor chain ``ChainSpec(p, q)`` scaled
    by 1/sqrt(d1), so its mean and variance are that chain's over d1^2 and
    d1^4.
    """
    single, d1 = ChainSpec(spec.p, spec.q), spec.d1
    mu_single = as_float(mean_h_product_exact(single) / d1**2, "mu_single")
    mu_product = as_float(mean_h_product_exact(spec), "mu_product")
    return TestPlan(
        spec=spec,
        mu_single=mu_single,
        mu_product=mu_product,
        threshold=(mu_single + mu_product) / 2.0,
        var_single=as_float(var_h_product_exact(single) / d1**4, "var_single"),
        var_product=as_float(var_h_product_exact(spec), "var_product"),
    )


def classify(h_values, plan: TestPlan) -> np.ndarray:
    """True where a value is labeled "product": it exceeds the threshold.

    Exact ties go to "single". Works elementwise on any array of values.
    """
    return np.asarray(h_values, dtype=float) > plan.threshold


def chebyshev_error(plan: TestPlan) -> float:
    """Per-hypothesis misclassification bound for the midpoint threshold.

    Chebyshev at half the mean gap: the larger exact variance over
    (gap/2)^2, clamped to 1. A nonpositive gap carries no guarantee and
    returns 1.
    """
    gap = plan.mu_product - plan.mu_single
    if gap <= 0:
        return 1.0
    worst = max(plan.var_single, plan.var_product)
    return min(1.0, worst / (gap / 2.0) ** 2)


def draw_h_samples(spec: ChainSpec, n: int, seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    """n statistic values from each ensemble.

    Product trial i uses stream ``seed.stream_index + i`` and single trial
    i uses stream ``seed.stream_index + n + i``, so the two batches are
    independent and any trial order reproduces the same values.
    """
    return (
        h_samples(sample_product, spec, n, seed),
        h_samples(sample_single, spec, n, seed.stream(n)),
    )


def power_from_samples(h_product, h_single, plan: TestPlan) -> PowerReport:
    """Error rates of the threshold test on drawn statistic values.

    A false positive is a single-ensemble draw labeled "product"; a false
    negative is a product draw labeled "single". Accuracy balances the two
    hypotheses equally.
    """
    fnr = float((~classify(h_product, plan)).mean())
    fpr = float(classify(h_single, plan).mean())
    return PowerReport(
        n_trials=len(h_product),
        accuracy=1.0 - (fpr + fnr) / 2.0,
        false_positive_rate=fpr,
        false_negative_rate=fnr,
        chebyshev_error_bound=chebyshev_error(plan),
    )


def tv_lower_bound_empirical(xs, ys) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup_t |F_x(t) - F_y(t)|.

    Thresholding events on the statistic are a subfamily of all events, so
    this estimates a lower bound on the TV distance of the underlying
    matrix laws. Evaluated exactly over all sample points.
    """
    xs = np.sort(np.asarray(xs, dtype=float).ravel())
    ys = np.sort(np.asarray(ys, dtype=float).ravel())
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    fy = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.abs(fx - fy).max())


def tv_upper_bound(spec: ChainSpec) -> float:
    """Chain TV upper bound c * sum_i sqrt(pq/d_i), clamped to 1, with c = ``TV_UPPER_C``.

    Theory does not pin the absolute constant c; it is fixed at 1, and
    reports echo it alongside the value.
    """
    if spec.r < 2:
        raise ValueError("upper bound needs at least two factors")
    total = TV_UPPER_C * sum(math.sqrt(spec.p * spec.q / d) for d in spec.inner)
    return min(1.0, total)
