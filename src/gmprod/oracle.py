"""Exact ground truth for the analytic formulas, by Wick enumeration.

The oracle expands the statistic into monomials in individual Gaussian
entries and evaluates each monomial by independence: distinct entries
factor, and a single standard normal entry raised to the k-th power
contributes (k-1)!! for even k and 0 for odd k. Sums run in blocks of
index tuples reduced in exact numpy integer arithmetic, and the block
sums add up as Python integers, so memory does not grow with the
monomial count; only the variance's table, 4 ids per term of h, grows
with p^2 q^2.

A mean's monomials have degree 4 in one Gaussian. For A = B G each is a
degree-4 monomial in B times one in G, tied by the inner tuple
k = (k1, k2, k3, k4). The factors are independent, so the mean is the
sum over k of M_B(k) M_G(k): M_B(k) sums the B-moments over the row
pairs (i, j), M_G(k) the G-moments over the column pairs (a, b). That
is (p^2 + q^2) d^4 degree-4 moments in place of p^2 q^2 d^4 degree-8
ones, and the same integer. A degree-4 moment is the number of the
three pairings of its ids that hold. A variance pairs two terms of h
into a degree-8 monomial: both halves are looked up in the table of
term ids, and the sorted row gives the exponents. ``WickBudget`` caps
the monomials of the full expansion, however they are summed: p^2 q^2 d^4
for a two-factor mean, p^2 q^2 and (p^2 q^2)^2 for a single factor's
mean and variance. Chains have at most two factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ChainSpec

# Degree-8 monomials per variance block; a block's moment sum is at most 2^11 * 105.
_BLOCK_MONOMIALS = 1 << 11
# Degree-4 rows per block of the means.
_BLOCK_ROWS = 1 << 13


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
    """Sum of the moments of the degree-8 monomials whose entry ids are the rows.

    A sorted row is nonzero iff its ids match in consecutive pairs (every
    exponent even); the c-th pair of a run of equal ids contributes 2c - 1,
    so an id of exponent 2c contributes (2c-1)!! = 1, 3, 15 or 105.
    """
    rows = np.sort(rows, axis=1)
    even = rows[:, 0::2] == rows[:, 1::2]
    # column by column: several times faster than even.all(axis=1) on 4 columns
    pairs = rows[even[:, 0] & even[:, 1] & even[:, 2] & even[:, 3], 0::2]
    run = np.ones(len(pairs), dtype=np.int64)
    moment = np.ones(len(pairs), dtype=np.int64)
    for t in range(1, pairs.shape[1]):
        run = np.where(pairs[:, t] == pairs[:, t - 1], run + 1, 1)
        moment *= 2 * run - 1
    return int(moment.sum())


def _moment4(x0, x1, x2, x3) -> np.ndarray:
    """Moments, as uint8, of the degree-4 monomials with entry ids x0..x3 (arrays that broadcast).

    By Wick, one per pairing of the four ids that holds: 1 for two distinct
    pairs, 3 when all four ids are equal (E g^4), 0 otherwise.
    """
    pairings = ((x0 == x1) & (x2 == x3), (x0 == x2) & (x1 == x3), (x0 == x3) & (x1 == x2))
    return pairings[0].view(np.uint8) + pairings[1] + pairings[2]


def _blocks(shape: tuple[int, ...], block: int):
    """Index arrays, one per axis, of the tuples of ``shape`` in row-major blocks of ``block``."""
    size = math.prod(shape)
    for start in range(0, size, block):
        yield np.unravel_index(np.arange(start, min(start + block, size)), shape)


def _pair_sums(n: int, width: int, ids) -> np.ndarray:
    """Per column, the degree-4 moment sum over the row pairs (u, v) in [n]^2.

    ``ids(u, v)`` maps two (m, 1) row arrays to four id arrays of shape
    (m, width); the n^2 pairs go in chunks of ``_BLOCK_ROWS // width``.
    """
    out = np.zeros(width, dtype=np.int64)
    step = max(1, _BLOCK_ROWS // width)
    for start in range(0, n * n, step):
        u, v = np.divmod(np.arange(start, min(start + step, n * n))[:, None], n)
        out += _moment4(*ids(u, v)).sum(axis=0, dtype=np.int64)
    return out


def _term(a, b, i, j, q: int):
    """Ids of the entries (i, a), (i, b), (j, a), (j, b) of a matrix with q columns."""
    return [i * q + a, i * q + b, j * q + a, j * q + b]


def _single_mean(p: int, q: int) -> int:
    """E tr((G^T G)^2) for a p x q Gaussian: the moments of h's terms summed over (a, b, i, j)."""
    total = 0
    for a, b in _blocks((q, q), max(1, _BLOCK_ROWS // (p * p))):
        total += int(_pair_sums(p, len(a), lambda i, j: _term(a, b, i, j, q)).sum())
    return total


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
        return Fraction(_single_mean(p, q))
    d = spec.d1
    budget.check(p * p * q * q * d**4, "mean enumeration")
    total = 0
    # A = B G: each A-entry expands into d paths through the inner index, so a
    # monomial is a B-part times a G-part sharing the inner tuple (k1, k2, k3, k4);
    # the factors are independent, so per tuple the sum is M_B(k) * M_G(k)
    for k1, k2, k3, k4 in _blocks((d,) * 4, max(1, _BLOCK_ROWS // max(p * p, q * q))):
        m_b = _pair_sums(p, len(k1), lambda i, j: (i * d + k1, i * d + k2, j * d + k3, j * d + k4))
        m_g = _pair_sums(q, len(k1), lambda a, b: (k1 * q + a, k2 * q + b, k3 * q + a, k4 * q + b))
        # M_B <= 3 p^2 and M_G <= 3 q^2, so with p^2, q^2 <= _BLOCK_ROWS a block's
        # int64 sum is at most 9 * 2^13 * min(p^2, q^2); past that a block is one tuple,
        # at most 9 p^2 q^2
        total += int(m_b @ m_g)
    return Fraction(total, d**4)


def wick_exact_var_h_single(spec: ChainSpec, budget: WickBudget = WickBudget()) -> Fraction:
    """Exact Var tr((G^T G)^2) for the unnormalized p x q Gaussian of a one-factor chain.

    The second moment is a degree-8 enumeration over pairs of h's terms
    (entry moments up to E g^8 = 105); the squared mean is subtracted exactly.
    """
    p, q = spec.p, spec.q
    if spec.r > 1:
        raise OracleBudgetError(f"exact oracle variance supports one factor only, got r={spec.r}")
    budget.check((p * p * q * q) ** 2, "variance enumeration")
    # row t holds the entry ids of h's t-th term; a monomial is a pair of rows,
    # gathered with take, several times faster here than fancy indexing
    terms = np.stack(_term(*np.unravel_index(np.arange(p * p * q * q), (q, q, p, p)), q), axis=1)
    second = 0
    for pair in _blocks((len(terms),) * 2, _BLOCK_MONOMIALS):
        second += _moment_sum(terms.take(np.stack(pair, axis=1), axis=0).reshape(-1, 8))
    mean = _single_mean(p, q)
    return Fraction(second - mean * mean)
