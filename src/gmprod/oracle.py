"""Exact ground truth for the analytic formulas, by Wick enumeration.

The oracle expands the statistic into monomials in individual Gaussian
entries and evaluates each monomial by independence: distinct entries
factor, and a single standard normal entry raised to the k-th power
contributes (k-1)!! for even k and 0 for odd k. Every monomial is visited,
in blocks of ``_BLOCK_MONOMIALS`` decoded from a flat index and reduced in
exact numpy integer arithmetic, so memory stays fixed; time grows with the
monomial count (p^2 q^2 d^4 for a two-factor mean, (p^2 q^2)^2 for a
variance), which ``WickBudget`` caps. Chains have at most two factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ChainSpec

# Monomials per enumeration block; a block's moment sum is at most 2^11 * 105.
_BLOCK_MONOMIALS = 1 << 11


class OracleBudgetError(RuntimeError):
    """Requested enumeration is too large for the exact oracle."""


@dataclass(frozen=True)
class WickBudget:
    """Cap on the number of monomials an enumeration may visit, at most 2^63 - 1."""

    max_monomials: int = 10_000_000

    def __post_init__(self):
        if self.max_monomials < 1:
            raise ValueError("max_monomials must be positive")
        if self.max_monomials >= 1 << 63:  # past the enumeration's int64 flat index
            raise ValueError(f"max_monomials must be at most 2^63 - 1, got {self.max_monomials}")

    def check(self, count: int, what: str) -> None:
        if count > self.max_monomials:
            raise OracleBudgetError(
                f"{what} needs {count} monomials, over the budget of {self.max_monomials}; "
                "too large for exact oracle"
            )


def _moment_sum(rows: np.ndarray) -> int:
    """Sum of the moments of the monomials whose entry ids are the rows.

    A sorted row is nonzero iff its ids match in consecutive pairs (every
    exponent even); the c-th pair of a run of equal ids contributes 2c - 1,
    so an id of exponent 2c contributes (2c-1)!! = 1, 3, 15 or 105.
    """
    rows = np.sort(rows, axis=1)
    pairs = rows[:, 0::2]
    pairs = pairs[(pairs == rows[:, 1::2]).all(axis=1)]
    run = np.ones(len(pairs), dtype=np.int64)
    moment = np.ones(len(pairs), dtype=np.int64)
    for t in range(1, pairs.shape[1]):
        run = np.where(pairs[:, t] == pairs[:, t - 1], run + 1, 1)
        moment *= 2 * run - 1
    return int(moment.sum())


def _enumerate(shape: tuple[int, ...], entries) -> int:
    """Moment sum of the monomials indexed by ``shape``, decoded block by block;
    ``entries`` maps a block's index arrays, one per axis, to its id columns."""
    size = math.prod(shape)
    total = 0
    for start in range(0, size, _BLOCK_MONOMIALS):
        index = np.unravel_index(np.arange(start, min(start + _BLOCK_MONOMIALS, size)), shape)
        total += _moment_sum(np.stack(entries(*index), axis=1))
    return total


def _term(a, b, i, j, q: int):
    """Ids of the entries (i, a), (i, b), (j, a), (j, b) of a matrix with q columns."""
    return [i * q + a, i * q + b, j * q + a, j * q + b]


def wick_exact_mean_h(spec: ChainSpec, budget: WickBudget = WickBudget()) -> Fraction:
    """Exact E tr((A^T A)^2) for the normalized chain, by enumeration.

    Supports one or two factors; the path expansion explodes beyond that.
    A one-factor chain gives the value for the bare unnormalized
    Gaussian, matching the closed-form convention.
    """
    p, q = spec.p, spec.q
    if spec.r > 2:
        raise OracleBudgetError(
            f"exact oracle supports chains of at most two factors, got r={spec.r}"
        )
    if spec.r == 1:
        budget.check(p * p * q * q, "mean enumeration")
        return Fraction(_enumerate((q, q, p, p), lambda *ix: _term(*ix, q)))
    d = spec.d1
    budget.check(p * p * q * q * d**4, "mean enumeration")

    def paths(a, b, i, j, k1, k2, k3, k4):
        # A = B G: each A-entry expands into d paths through the inner index; the
        # factors are independent, so G-entry ids (k, a) start after B's (i, k)
        return [i * d + k1, i * d + k2, j * d + k3, j * d + k4,
                *(p * d + k * q + c for k, c in ((k1, a), (k2, b), (k3, a), (k4, b)))]

    return Fraction(_enumerate((q, q, p, p, d, d, d, d), paths), d**4)


def wick_exact_var_h_single(spec: ChainSpec, budget: WickBudget = WickBudget()) -> Fraction:
    """Exact Var tr((G^T G)^2) for the unnormalized p x q Gaussian of a one-factor chain.

    The second moment is a degree-8 enumeration over pairs of h's terms
    (entry moments up to E g^8 = 105); the squared mean is subtracted exactly.
    """
    p, q = spec.p, spec.q
    if spec.r > 1:
        raise OracleBudgetError(f"exact oracle variance supports one factor only, got r={spec.r}")
    budget.check((p * p * q * q) ** 2, "variance enumeration")
    second = _enumerate((q, q, p, p) * 2, lambda *ix: _term(*ix[:4], q) + _term(*ix[4:], q))
    mean = _enumerate((q, q, p, p), lambda *ix: _term(*ix, q))
    return Fraction(second - mean * mean)

