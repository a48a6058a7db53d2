"""The distinguishing statistic h."""

from __future__ import annotations

from .core import as_matrix


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

