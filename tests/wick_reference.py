"""Reference Wick enumerations, one monomial at a time in Python integers.

These are the straightforward loops the exact oracle in ``gmprod.oracle``
is checked against: each monomial's entries are tallied in a ``Counter``
and its expectation is the product of the even Gaussian moments (k-1)!!
of the tallied exponents, or zero if any exponent is odd.
"""

from collections import Counter
from itertools import product

# E[g^k] for g ~ N(0,1): (k-1)!! for even k, zero for odd k.
EVEN_MOMENT = {0: 1, 2: 1, 4: 3, 6: 15, 8: 105}


def moment_of_tally(tally: Counter) -> int:
    out = 1
    for exponent in tally.values():
        if exponent % 2:
            return 0
        out *= EVEN_MOMENT[exponent]
    return out


def mean_h_unnormalized_single(p: int, q: int) -> int:
    """E tr((G^T G)^2) for a p x q standard Gaussian G, by enumeration."""
    total = 0
    for a, b, i, j in product(range(q), range(q), range(p), range(p)):
        total += moment_of_tally(Counter([(i, a), (i, b), (j, a), (j, b)]))
    return total


def mean_h_unnormalized_pair(p: int, d: int, q: int) -> int:
    """E tr((A^T A)^2) for A = B G with B ~ p x d and G ~ d x q Gaussians.

    Each A-entry expands into d paths through the inner index; B- and
    G-entries are tallied separately since the factors are independent.
    """
    total = 0
    inner = range(d)
    for a, b, i, j in product(range(q), range(q), range(p), range(p)):
        for k1, k2, k3, k4 in product(inner, inner, inner, inner):
            eb = moment_of_tally(Counter([(i, k1), (i, k2), (j, k3), (j, k4)]))
            if eb == 0:
                continue
            eg = moment_of_tally(Counter([(k1, a), (k2, b), (k3, a), (k4, b)]))
            total += eb * eg
    return total


def var_h_unnormalized_single(p: int, q: int) -> int:
    """Var tr((G^T G)^2) for a p x q standard Gaussian G, by enumeration."""
    quads = list(product(range(q), range(q), range(p), range(p)))
    second = 0
    for a, b, i, j in quads:
        left = [(i, a), (i, b), (j, a), (j, b)]
        for a2, b2, i2, j2 in quads:
            tally = Counter(left)
            tally.update([(i2, a2), (i2, b2), (j2, a2), (j2, b2)])
            second += moment_of_tally(tally)
    mean = mean_h_unnormalized_single(p, q)
    return second - mean * mean
