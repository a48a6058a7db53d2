"""Exact ground truth for the analytic formulas, by a sum over Wick pairings.

An entry of the chain A = X_1 ... X_r is a sum over paths through the
chain's index variables: A_ia = sum over k_1..k_{r-1} of
X_1[i, k_1] X_2[k_1, k_2] ... X_r[k_{r-1}, a]. So h = tr((A^T A)^2)
= sum over i, j, a, b of A_ia A_ib A_jb A_ja is a sum of products with four
entries of each factor, one per path, and h^2 one with eight. The factors
are independent, and by Isserlis' theorem the expectation of a product
of standard normal entries is the number of pairings of them in which
every pair is the same entry. A pairing of a factor's slots ties the
index variables at its two ends, so summed over the index values a
choice of one pairing per factor contributes the product of the sizes of its
classes of tied variables. E h is then 3^r terms and E h^2 is 105^r,
whatever the dimensions.

Each class lies at one level of the chain, and its count there depends
only on the pairings that tie it: the first factor's for level 0 (each
copy's i and j), the last's for level r (a and b), and at inner level m
the loops that the pairings of factors m and m + 1 close (the loop-counting
Gram matrix of pairings, as in Collins & Sniady 2006). So the sum is a
product over the levels: a vector over the first factor's pairings,
v_0[mu] = p^(row classes of mu), goes through T(d)[mu, nu] = d^loops(mu, nu)
once per inner dimension d and is closed against v_r[nu] = q^(column
classes of nu). A factor's slots have 3 pairings for E h and 105 for
E h^2, so the cost is linear in r.

``MAX_MONOMIALS`` caps which shapes the oracle accepts, in the monomials
(p q d_1 ... d_{r-1})^(2 power) of the full expansion of E h^power. It
bounds no work the oracle does. The mean takes a chain of any length, the
variance one factor.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .core import ChainSpec


MAX_MONOMIALS = 10_000_000


class OracleBudgetError(RuntimeError):
    """Requested shape has more than ``MAX_MONOMIALS`` monomials in its full expansion."""


def _check_monomials(spec: ChainSpec, power: int, what: str) -> None:
    """Refuse a shape whose E h^power expands to more than ``MAX_MONOMIALS`` monomials."""
    count = (spec.p * spec.q * math.prod(spec.inner) ** 2) ** (2 * power)
    if count > MAX_MONOMIALS:
        raise OracleBudgetError(
            f"{what} needs {count} monomials, over the budget of {MAX_MONOMIALS}; "
            "too large for exact oracle"
        )


def _matchings(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every perfect matching of the slots 0..n-1, as tuples of pairs; there are (n-1)!!.

    Each matching of the slots below s = n-2 gives n-1 of them: with the
    pair (s, s+1) added, or with s and s+1 swapped into one of its pairs
    (a, b) in either order, as (a, s), (b, s+1) or (a, s+1), (b, s).
    """
    out = [()]
    for s in range(0, n, 2):
        grown = []
        for matching in out:
            grown.append(matching + ((s, s + 1),))
            for k, (a, b) in enumerate(matching):
                rest = matching[:k] + matching[k + 1 :]
                grown += [rest + ((a, s), (b, s + 1)), rest + ((a, s + 1), (b, s))]
        out = grown
    return out


def _classes(n: int, ties) -> int:
    """How many classes the variables 0..n-1 fall into once each pair in ``ties`` is tied."""
    parent = list(range(n))
    for u, v in ties:
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[u] = v
            n -= 1
    return n


@functools.cache
def _boundary_classes(power: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The classes each pairing of a factor's slots leaves among the rows, and among the columns.

    Slot e is the e-th entry of h^power; copy c's entries A_ia, A_ib, A_jb,
    A_ja have row variables i, i, j, j and column variables a, b, b, a.
    """
    rows = [2 * c + k for c in range(power) for k in (0, 0, 1, 1)]
    cols = [2 * c + k for c in range(power) for k in (0, 1, 1, 0)]
    matchings = _matchings(4 * power)
    return tuple(
        tuple(_classes(2 * power, ((ends[e], ends[f]) for e, f in mu)) for mu in matchings)
        for ends in (rows, cols)
    )


@functools.cache
def _loops(power: int) -> tuple[tuple[int, ...], ...]:
    """The loop matrix: how many loops the pairings mu and nu of two adjacent factors close.

    It is symmetric, since mu and nu tie the same variables in either order.
    """
    matchings = _matchings(4 * power)
    return tuple(tuple(_classes(4 * power, mu + nu) for nu in matchings) for mu in matchings)


def _moment(spec: ChainSpec, power: int) -> Fraction:
    """E h^power of the chain, scaled as the sampler scales it, summed over Wick pairings.

    It is the product over the chain's levels that the module docstring
    describes, in exact integers. A one-factor chain gives the bare
    unnormalized Gaussian.
    """
    rows, cols = _boundary_classes(power)

    def powers(x):  # no level has more than 2 * power classes
        return [x**k for k in range(2 * power + 1)]

    p_powers = powers(spec.p)
    vector = list(map(p_powers.__getitem__, rows))
    for d in spec.inner:
        d_powers = powers(d)
        # T(d) is symmetric, so the entry for nu is row nu of T(d) against the vector
        vector = [
            sum(map(operator.mul, vector, map(d_powers.__getitem__, row))) for row in _loops(power)
        ]
    q_powers = powers(spec.q)
    total = sum(map(operator.mul, vector, map(q_powers.__getitem__, cols)))
    # factor m is scaled by 1/sqrt of its column count, the last by 1/sqrt(d1)
    return Fraction(total, math.prod(spec.inner + spec.inner[:1]) ** (2 * power))


def wick_exact_mean_h(spec: ChainSpec) -> Fraction:
    """Exact E tr((A^T A)^2) for the normalized chain, by a sum over Wick pairings.

    A one-factor chain gives the value for the bare unnormalized Gaussian,
    matching the closed-form convention.
    """
    _check_monomials(spec, 1, "mean enumeration")
    return _moment(spec, 1)


def wick_exact_var_h_single(spec: ChainSpec) -> Fraction:
    """Exact Var tr((G^T G)^2) for the unnormalized p x q Gaussian of a one-factor chain.

    The second moment sums the 105 pairings of h^2's eight entries; the
    squared mean is subtracted exactly.
    """
    if spec.r > 1:
        raise ValueError(f"exact oracle variance supports one factor only, got r={spec.r}")
    _check_monomials(spec, 2, "variance enumeration")
    return _moment(spec, 2) - _moment(spec, 1) ** 2
