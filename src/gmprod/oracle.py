"""Independent ground-truth engines for the analytic formulas.

Two kinds of oracle live here. The exact one expands the statistic into
monomials in individual Gaussian entries and evaluates each monomial by
independence: distinct entries factor, and a single standard normal entry
raised to the k-th power contributes (k-1)!! for even k and 0 for odd k.
Everything is integer/rational arithmetic, so the results carry no
floating error, but the enumeration is only feasible for tiny dimensions
and chains of at most two factors. The Monte Carlo estimators cover
everything else, with standard errors attached.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

# E[g^k] for g ~ N(0,1): (k-1)!! for even k, zero for odd k.
_EVEN_MOMENT = {0: 1, 2: 1, 4: 3, 6: 15, 8: 105}


class OracleBudgetError(RuntimeError):
    """Requested enumeration is too large for the exact oracle."""


@dataclass(frozen=True)
class WickBudget:
    """Cap on the number of monomials an enumeration may visit."""

    max_monomials: int = 10_000_000

    def __post_init__(self):
        if self.max_monomials < 1:
            raise ValueError("max_monomials must be positive")

    def check(self, count: int, what: str) -> None:
        if count > self.max_monomials:
            raise OracleBudgetError(
                f"{what} needs {count} monomials, over the budget of {self.max_monomials}; "
                "too large for exact oracle"
            )


@dataclass(frozen=True)
class CIEstimate:
    estimate: float
    std_error: float
    n: int


def _moment_of_tally(tally: Counter) -> int:
    out = 1
    for exponent in tally.values():
        if exponent % 2:
            return 0
        out *= _EVEN_MOMENT[exponent]
    return out


def _mean_h_unnormalized_single(p: int, q: int) -> int:
    """E tr((G^T G)^2) for a p x q standard Gaussian G, by enumeration."""
    total = 0
    for a, b, i, j in product(range(q), range(q), range(p), range(p)):
        total += _moment_of_tally(Counter([(i, a), (i, b), (j, a), (j, b)]))
    return total


def _mean_h_unnormalized_pair(p: int, d: int, q: int) -> int:
    """E tr((A^T A)^2) for A = B G with B ~ p x d and G ~ d x q Gaussians.

    Each A-entry expands into d paths through the inner index; B- and
    G-entries are tallied separately since the factors are independent.
    """
    total = 0
    inner = range(d)
    for a, b, i, j in product(range(q), range(q), range(p), range(p)):
        for k1, k2, k3, k4 in product(inner, inner, inner, inner):
            eb = _moment_of_tally(Counter([(i, k1), (i, k2), (j, k3), (j, k4)]))
            if eb == 0:
                continue
            eg = _moment_of_tally(Counter([(k1, a), (k2, b), (k3, a), (k4, b)]))
            total += eb * eg
    return total


def wick_exact_mean_h(p: int, q: int, inner, budget: WickBudget = WickBudget()) -> Fraction:
    """Exact E tr((A^T A)^2) for the normalized chain, by enumeration.

    Supports one or two factors; the path expansion explodes beyond that.
    With an empty ``inner`` the value is for the bare unnormalized
    Gaussian, matching the closed-form convention.
    """
    inner = [int(d) for d in inner]
    r = len(inner) + 1
    if r > 2:
        raise OracleBudgetError(
            f"exact oracle supports chains of at most two factors, got r={r}"
        )
    if r == 1:
        budget.check(p * p * q * q, "mean enumeration")
        return Fraction(_mean_h_unnormalized_single(p, q))
    d = inner[0]
    budget.check(p * p * q * q * d**4, "mean enumeration")
    return Fraction(_mean_h_unnormalized_pair(p, d, q), d**4)


def wick_exact_var_h_single(p: int, q: int, budget: WickBudget = WickBudget()) -> Fraction:
    """Exact Var tr((G^T G)^2) for an unnormalized p x q Gaussian.

    The second moment is a degree-8 enumeration (entry moments up to
    E g^8 = 105); the squared mean is subtracted exactly.
    """
    quads = list(product(range(q), range(q), range(p), range(p)))
    budget.check(len(quads) ** 2, "variance enumeration")
    second = 0
    for a, b, i, j in quads:
        left = [(i, a), (i, b), (j, a), (j, b)]
        for a2, b2, i2, j2 in quads:
            tally = Counter(left)
            tally.update([(i2, a2), (i2, b2), (j2, a2), (j2, b2)])
            second += _moment_of_tally(tally)
    mean = _mean_h_unnormalized_single(p, q)
    return Fraction(second - mean * mean)


def _batch(values, least: int, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < least:
        raise ValueError(f"{what} needs a 1-D batch of at least {least} trials")
    return values


def mc_mean(values) -> CIEstimate:
    """Sample mean of a batch of statistic values, with its standard error.

    ``values`` holds one value per independently seeded trial, typically
    from ``engine.h_samples``.
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
