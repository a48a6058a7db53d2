"""Exact and asymptotic moments of the statistic for both ensembles.

The six fourth-order invariant moments of a bi-rotationally invariant
ensemble determine the mean of tr((A^T A)^2). Appending one Gaussian
factor maps those moments linearly, which yields both a layer-by-layer
recursion and closed forms for the whole chain. All recursion arithmetic
is generic over Python numbers: integer inputs stay exact (Python ints
never overflow), float inputs run in double precision for large sweeps.

The variance is exact for every chain: each Gram matrix of the chain is
Wishart given the factors before it, so a committed table of Wishart
trace moments, applied once per factor, gives E[h^2] as an exact integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import ChainSpec


@dataclass(frozen=True)
class MomentVector:
    """Invariant fourth-order moments of one ensemble.

    s1: diagonal entry fourth moment        E A_11^4
    s2: off-diagonal entry fourth moment    E A_21^4
    s3: same-column pair                    E A_11^2 A_21^2
    s4: same-row pair                       E A_11^2 A_12^2
    s5: disjoint pair                       E A_11^2 A_22^2
    s6: rectangle                           E A_11 A_12 A_21 A_22
    """

    s1: int | float
    s2: int | float
    s3: int | float
    s4: int | float
    s5: int | float
    s6: int | float

    def as_tuple(self):
        return (self.s1, self.s2, self.s3, self.s4, self.s5, self.s6)


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


def closed_form_moments(inner) -> MomentVector:
    """Moments of the full unnormalized chain with the given inner dimensions.

    Equivalent to folding ``layer_update`` over ``inner`` starting from the
    single-Gaussian base; an empty list returns the base itself.
    """
    inner = [int(d) for d in inner]
    s4 = math.prod(d * (d + 2) for d in inner)
    s6 = sum(
        math.prod(inner[i] * (inner[i] + 2) for i in range(j))
        * inner[j]
        * math.prod(inner[i] * (inner[i] - 1) for i in range(j + 1, len(inner)))
        for j in range(len(inner))
    )
    return MomentVector(3 * s4, 3 * s4, s4, s4, s4 - 2 * s6, s6)


def _normalizer(spec: ChainSpec) -> int:
    """The sampler's scaling of h: prod d_k^2 * d_1^2, or 1 for one factor."""
    return math.prod(d * d for d in spec.inner) * (spec.inner[0] ** 2 if spec.inner else 1)


def mean_h_product_exact(spec: ChainSpec) -> Fraction:
    """Exact E[tr((A^T A)^2)] for the normalized product chain, as a rational.

    The chain normalizer is the fourth power of the accumulated per-factor
    scalings: each of d_1 ... d_{r-1} appears squared, and the last factor
    contributes another d_1^2. With an empty chain (one factor) there is
    no normalizer, so the value is the unnormalized single-Gaussian mean
    p*q*(p+q+1); normalizing that case is the caller's job, mirroring the
    sampler's contract.
    """
    m = closed_form_moments(spec.inner)
    numerator = spec.p * spec.q * (spec.p + spec.q + 1) * m.s3 + spec.p * spec.q * (
        spec.p - 1
    ) * (spec.q - 1) * m.s6
    return Fraction(numerator, _normalizer(spec))


def mean_h_product(spec: ChainSpec) -> float:
    """Exact mean of the statistic under the product ensemble, as a float."""
    return float(mean_h_product_exact(spec))


def mean_h_asymptotic(spec: ChainSpec) -> float:
    """Leading-order mean of the statistic for large inner dimensions.

    pq(p+q+1)/d1^2 plus the pq(p-1)(q-1)/d1^2 * sum(1/d_j) correction that
    separates the product from a single Gaussian.
    """
    if spec.r < 2:
        raise ValueError("asymptotic mean needs at least two factors")
    p, q, d1 = spec.p, spec.q, spec.d1
    lead = p * q * (p + q + 1) / d1**2
    corr = p * q * (p - 1) * (q - 1) / d1**2 * sum(1.0 / d for d in spec.inner)
    return lead + corr


def mean_h_single(p: int, q: int, d: int) -> float:
    """Mean of the statistic for a p x q Gaussian scaled by 1/sqrt(d)."""
    return p * q * (p + q + 1) / d**2


@dataclass(frozen=True)
class UComponents:
    """Variance/covariance components of squared Gram entries of one ensemble.

    u1: Var((A^T A)_ii^2)
    u2: Var((A^T A)_ij^2), i != j
    u3: Cov((A^T A)_ii^2, (A^T A)_ik^2), i != k
    u4: Cov((A^T A)_ij^2, (A^T A)_ik^2), j != k, both off-diagonal
    u5: Cov((A^T A)_ii^2, (A^T A)_jj^2), i != j
    u6: Cov((A^T A)_ii^2, (A^T A)_jk^2), i, j, k distinct
    u7: Cov((A^T A)_ij^2, (A^T A)_kl^2), i, j, k, l distinct
    """

    u1: int | float
    u2: int | float
    u3: int | float
    u4: int | float
    u5: int | float
    u6: int | float
    u7: int | float

    def as_tuple(self):
        return (self.u1, self.u2, self.u3, self.u4, self.u5, self.u6, self.u7)


def u_components_gaussian(p: int) -> UComponents:
    """The seven components for an unnormalized Gaussian with p rows."""
    return UComponents(
        u1=8 * p * (p + 2) * (p + 3),
        u2=2 * p * (p + 3),
        u3=4 * p * (p + 2),
        u4=2 * p,
        u5=0,
        u6=0,
        u7=0,
    )


def variance_from_components(u: UComponents, q: int) -> int | float:
    """Assemble Var(tr((A^T A)^2)) from the components, q columns."""
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    return (
        q * u.u1
        + q * (q - 1) * (2 * u.u2 + 4 * u.u3 + u.u5)
        + 2 * q * (q - 1) * (q - 2) * (2 * u.u4 + u.u6)
        + q * (q - 1) * (q - 2) * (q - 3) * u.u7
    )


def variance_single_exact(p: int, q: int) -> int:
    """Var(tr((G^T G)^2)) for an unnormalized p x q Gaussian G.

    Callers scale by 1/d^4 for the 1/sqrt(d)-normalized ensemble (the
    statistic is quartic, so its variance picks up the eighth power of the
    scaling).
    """
    return 4 * p * q * (5 + 5 * p + 5 * q + 2 * p * p + 5 * p * q + 2 * q * q)


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


def var_h_product_exact(spec: ChainSpec) -> Fraction:
    """Exact Var of the statistic for the normalized product chain, as a rational.

    E[h^2] = E p_(2,2) and E[h] = E p_(2) of the Gram matrix, scaled by the
    same normalizer as ``mean_h_product_exact``. With an empty chain the
    value is for the unnormalized Gaussian, ``variance_single_exact(p, q)``.
    """
    mean = _trace_moment(spec, (2,))
    return Fraction(_trace_moment(spec, (2, 2)) - mean * mean, _normalizer(spec) ** 2)
