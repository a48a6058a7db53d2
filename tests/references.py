"""Test references that the package itself does not need.

The layer recursion of the six invariant moments, which
``gmprod.moments.closed_form_moments`` folds in one pass, and Monte
Carlo estimators with standard errors, which check the exact moments
against draws of the trial engine.
"""

from dataclasses import dataclass

import numpy as np

from gmprod.moments import MomentVector


def base_gaussian_moments() -> MomentVector:
    """Moments of a single unnormalized Gaussian matrix: (3, 3, 1, 1, 1, 0)."""
    return MomentVector(3, 3, 1, 1, 1, 0)


def layer_update(t: MomentVector, d: int) -> MomentVector:
    """Moments of B G for B with moments ``t`` and G a d-column Gaussian.

    The update is linear and keeps s1 == s2 (appending a Gaussian factor
    equalizes diagonal and off-diagonal fourth moments).
    """
    s1 = 3 * d * t.s1 + 3 * d * (d - 1) * t.s4
    s3 = 3 * d * t.s3 + d * (d - 1) * t.s5 + 2 * d * (d - 1) * t.s6
    s4 = d * t.s1 + d * (d - 1) * t.s4
    s5 = d * t.s3 + d * (d - 1) * t.s5
    s6 = d * t.s3 + d * (d - 1) * t.s6
    return MomentVector(s1, s1, s3, s4, s5, s6)


@dataclass(frozen=True)
class CIEstimate:
    estimate: float
    std_error: float
    n: int


def _batch(values, least: int, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < least:
        raise ValueError(f"{what} needs a 1-D batch of at least {least} trials")
    return values


def mc_mean(values) -> CIEstimate:
    """Sample mean of a batch of statistic values, with its standard error.

    ``values`` holds one value per independently seeded trial, typically
    from ``sampling.h_samples``.
    """
    values = _batch(values, 2, "mean estimation")
    n = values.size
    return CIEstimate(
        estimate=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(n)),
        n=n,
    )


def mc_variance(values) -> CIEstimate:
    """Unbiased sample variance of a batch of statistic values, with a jackknife standard error."""
    values = _batch(values, 10, "variance estimation")
    n = values.size
    centered = values - values.mean()
    total_sq = float((centered * centered).sum())
    # leave-one-out unbiased variances, vectorized over the left-out index
    loo_mean = -centered / (n - 1)
    loo_ss = total_sq - centered * centered - (n - 1) * loo_mean * loo_mean
    loo_var = loo_ss / (n - 2)
    jack_se = np.sqrt((n - 1) / n * ((loo_var - loo_var.mean()) ** 2).sum())
    return CIEstimate(
        estimate=total_sq / (n - 1),
        std_error=float(jack_se),
        n=n,
    )
