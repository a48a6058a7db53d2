"""The distinguishing statistic and summaries of Monte Carlo batches."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import as_matrix, frobenius_sq


def stat_h(x) -> float:
    """tr((X^T X)^2), the fourth power of the Schatten 4-norm.

    Equals the squared Frobenius norm of the Gram factor, so no second
    matrix product is needed. The factor is taken on the smaller side
    (X X^T and X^T X share nonzero eigenvalues), keeping the cost at
    O(rows * cols * min(rows, cols)). ``engine.h_samples`` computes the
    same value, bit for bit, over stacks of trials.
    """
    x = as_matrix(x)
    side = x if x.shape[1] <= x.shape[0] else x.T
    g = side.T @ side
    return float((g * g).sum())


def stat_t(x) -> float:
    """tr(X^T X)^2, the squared trace of the Gram matrix."""
    f = frobenius_sq(x)
    return f * f


@dataclass(frozen=True)
class StatSummary:
    n: int
    mean: float
    variance: float
    std_error_of_mean: float
    min: float
    max: float


def summarize(values) -> StatSummary:
    """Sample mean, unbiased variance, and standard error of a batch."""
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        raise ValueError("cannot summarize an empty batch")
    mean = math.fsum(vals) / n
    if n > 1:
        variance = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    else:
        variance = 0.0
    return StatSummary(
        n=n,
        mean=mean,
        variance=variance,
        std_error_of_mean=math.sqrt(variance / n),
        min=min(vals),
        max=max(vals),
    )
