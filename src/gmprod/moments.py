"""Exact moments of the statistic for both ensembles.

Every exact mean and variance of h = tr((A^T A)^2) comes from one source:
each Gram matrix of the chain is Wishart given the factors before it, so a
committed table of Wishart trace moments, applied once per factor, gives
E[h] and E[h^2] as exact integers. A single Gaussian is the one-factor
chain. The single ensemble scaled by 1/sqrt(d) is that chain's value over
d^2 (mean) or d^4 (variance).

The six fourth-order invariant moments of a bi-rotationally invariant
ensemble (``MomentVector``) are only printed: appending one Gaussian
factor maps them linearly, and ``closed_form_moments`` folds that map
over the whole chain in one pass, in exact integers.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .core import ChainSpec, _Record


class MomentVector(_Record):
    """Invariant fourth-order moments of one ensemble.

    s1: diagonal entry fourth moment        E A_11^4
    s2: off-diagonal entry fourth moment    E A_21^4
    s3: same-column pair                    E A_11^2 A_21^2
    s4: same-row pair                       E A_11^2 A_12^2
    s5: disjoint pair                       E A_11^2 A_22^2
    s6: rectangle                           E A_11 A_12 A_21 A_22
    """

    __slots__ = ("s1", "s2", "s3", "s4", "s5", "s6")


def closed_form_moments(spec: ChainSpec) -> MomentVector:
    """Moments of the full unnormalized chain; they depend only on its inner dimensions.

    A one-factor chain gives the single-Gaussian base (3, 3, 1, 1, 1, 0).
    One pass: s4 is the running product of d(d+2), and each layer maps s6
    to s6 d(d-1) + s4 d with the s4 of the layers before it.
    """
    s4, s6 = 1, 0
    for d in spec.inner:
        s4, s6 = s4 * d * (d + 2), s6 * d * (d - 1) + s4 * d
    return MomentVector(3 * s4, 3 * s4, s4, s4, s4 - 2 * s6, s6)


# E p_lam(W) = sum_mu c_{lam mu}(n) p_mu(Sigma) for W ~ Wishart_p(n, Sigma),
# where p_lam(W) = prod_i tr(W^lam_i) (Letac & Massam, Scand. J. Stat. 2004).
# Each c_{lam mu}(n) is listed by its coefficients in ascending powers of n;
# the rows cover |lam| = 2 and 4.
WISHART_TRACE_MOMENTS = {
    (2,): {(2,): (0, 1, 1), (1, 1): (0, 1)},
    (1, 1): {(2,): (0, 2), (1, 1): (0, 0, 1)},
    (4,): {(4,): (0, 20, 21, 6, 1), (3, 1): (0, 16, 12, 4), (2, 2): (0, 5, 5, 2),
           (2, 1, 1): (0, 6, 6), (1, 1, 1, 1): (0, 1)},
    (3, 1): {(4,): (0, 24, 18, 6), (3, 1): (0, 12, 16, 3, 1), (2, 2): (0, 6, 6),
             (2, 1, 1): (0, 6, 3, 3), (1, 1, 1, 1): (0, 0, 1)},
    (2, 2): {(4,): (0, 20, 20, 8), (3, 1): (0, 16, 16), (2, 2): (0, 4, 5, 2, 1),
             (2, 1, 1): (0, 8, 2, 2), (1, 1, 1, 1): (0, 0, 1)},
    (2, 1, 1): {(4,): (0, 24, 24), (3, 1): (0, 16, 8, 8), (2, 2): (0, 8, 2, 2),
                (2, 1, 1): (0, 0, 10, 1, 1), (1, 1, 1, 1): (0, 0, 0, 1)},
    (1, 1, 1, 1): {(4,): (0, 48), (3, 1): (0, 0, 32), (2, 2): (0, 0, 12),
                   (2, 1, 1): (0, 0, 0, 12), (1, 1, 1, 1): (0, 0, 0, 0, 1)},
}


def _trace_moment(spec: ChainSpec, lam: tuple[int, ...]) -> int:
    """E p_lam(A A^T) for the unnormalized chain A, an exact integer.

    With Sigma_k the Gram matrix of the first k factors (Sigma_0 = I_p),
    Sigma_k ~ Wishart_p(n_k, Sigma_{k-1}) where n_k is the column count of
    factor k, and A A^T = Sigma_r. So the table is applied with n = q
    first, then d_{r-1}, ..., d_1, and evaluated at p_mu(I_p) = p^len(mu).
    """
    weights = {lam: 1}
    for n in (spec.q, *reversed(spec.inner)):
        step = {}
        for row, weight in weights.items():
            for mu, coeffs in WISHART_TRACE_MOMENTS[row].items():
                step[mu] = step.get(mu, 0) + weight * sum(c * n**i for i, c in enumerate(coeffs))
        weights = step
    return sum(weight * spec.p ** len(mu) for mu, weight in weights.items())


def _normalizer(spec: ChainSpec) -> int:
    """The sampler's scaling of h: prod d_k^2 * d_1^2, or 1 for one factor."""
    return math.prod(d * d for d in spec.inner) * (spec.inner[0] ** 2 if spec.inner else 1)


def mean_h_product_exact(spec: ChainSpec) -> Fraction:
    """Exact E[tr((A^T A)^2)] for the normalized product chain, as a rational.

    E p_(2) of the Gram matrix over the chain normalizer, the fourth power
    of the accumulated per-factor scalings: each of d_1 ... d_{r-1} appears
    squared, and the last factor contributes another d_1^2. With an empty
    chain (one factor) there is no normalizer, so the value is the
    unnormalized single-Gaussian mean p*q*(p+q+1); normalizing that case
    is the caller's job, mirroring the sampler's contract.
    """
    return Fraction(_trace_moment(spec, (2,)), _normalizer(spec))


def as_float(value: Fraction, name: str) -> float:
    """An exact value as a float; a ValueError naming ``name`` if it is too large for one,
    or nonzero and below the smallest normal float (it would print as 0 or with lost digits).
    """
    try:
        result = float(value)
    except OverflowError:
        problem = "too large for a float; use fewer factors or smaller p and q"
    else:
        if not value or abs(result) >= sys.float_info.min:
            return result
        problem = "too small for a float; use smaller inner dimensions"
    exponent = math.floor(math.log10(abs(value.numerator)) - math.log10(value.denominator))
    raise ValueError(f"{name} of this chain is about 10^{exponent}, {problem}")


def var_h_product_exact(spec: ChainSpec) -> Fraction:
    """Exact Var of the statistic for the normalized product chain, as a rational.

    E[h^2] = E p_(2,2) and E[h] = E p_(2) of the Gram matrix, scaled by the
    same normalizer as ``mean_h_product_exact``. With an empty chain the
    value is for the unnormalized Gaussian, 4pq(2p^2 + 5pq + 2q^2 + 5p + 5q + 5).
    """
    mean = _trace_moment(spec, (2,))
    return Fraction(_trace_moment(spec, (2, 2)) - mean * mean, _normalizer(spec) ** 2)

